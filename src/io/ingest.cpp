#include "io/ingest.hpp"

#include "core/saboteur.hpp"
#include "digital/gates.hpp"
#include "digital/stimulus.hpp"
#include "io/sha256.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <unordered_map>

namespace gfi::io {

namespace {

using digital::Logic;

/// The nets of one elaboration, numbered in nets() order (primary inputs
/// first, so input i is net i), with every gate's inputs and output resolved
/// to those numbers once.
struct NetIndex {
    std::vector<std::string> nets;
    std::vector<std::size_t> gateOf;        ///< per net: its driving gate (not for inputs)
    std::vector<std::size_t> output;        ///< per gate of desc.gates
    std::vector<std::size_t> inputsBegin;   ///< per gate, into inputs; one extra end
    std::vector<std::size_t> inputs;        ///< per gate, sorted by net name

    explicit NetIndex(const NetlistDesc& desc) : nets(desc.nets()), gateOf(nets.size())
    {
        std::unordered_map<std::string_view, std::size_t> of;
        of.reserve(nets.size());
        for (std::size_t i = 0; i < nets.size(); ++i) {
            of.emplace(nets[i], i);
        }
        const auto at = [&](const std::string& net) {
            const auto it = of.find(net);
            if (it == of.end()) {
                throw std::out_of_range("IngestTestbench: unknown net '" + net + "'");
            }
            return it->second;
        };
        output.reserve(desc.gates.size());
        inputsBegin.reserve(desc.gates.size() + 1);
        for (const NetlistGate& g : desc.gates) {
            const std::size_t out = at(g.output);
            gateOf[out] = output.size();
            output.push_back(out);
            inputsBegin.push_back(inputs.size());
            for (const std::string& in : g.inputs) {
                inputs.push_back(at(in));
            }
            std::sort(inputs.begin() + static_cast<std::ptrdiff_t>(inputsBegin.back()),
                      inputs.end(),
                      [&](std::size_t a, std::size_t b) { return nets[a] < nets[b]; });
        }
        inputsBegin.push_back(inputs.size());
    }
};

/// Longest gate-to-gate path of @p desc (1 per gate traversed); the settle
/// budget one pattern needs is depth * gateDelay plus the zero-delay
/// saboteur deltas.
int combinationalDepth(const NetlistDesc& desc, const NetIndex& index)
{
    std::vector<int> depth(index.nets.size(), -1); // gates on the longest path; -1 unknown
    std::fill_n(depth.begin(), desc.inputs.size(), 0);
    // The gate list is not necessarily topological; iterate to a fixed point
    // (validate() rejected self-loops; a malformed multi-gate cycle would be
    // caught by lint DIG001 at elaboration, so cap the sweeps defensively).
    const std::size_t cap = desc.gates.size() + 1;
    bool changed = true;
    for (std::size_t sweep = 0; changed && sweep < cap; ++sweep) {
        changed = false;
        for (std::size_t g = 0; g < desc.gates.size(); ++g) {
            int worst = -1;
            for (std::size_t k = index.inputsBegin[g]; k < index.inputsBegin[g + 1]; ++k) {
                const int d = depth[index.inputs[k]];
                if (d < 0) {
                    worst = -1;
                    break;
                }
                worst = std::max(worst, d);
            }
            int& out = depth[index.output[g]];
            if (worst < 0 || out > worst) {
                continue;
            }
            out = worst + 1;
            changed = true;
        }
    }
    int maxDepth = 0;
    for (const int d : depth) {
        maxDepth = std::max(maxDepth, d);
    }
    return maxDepth;
}

} // namespace

std::string PatternSet::canonicalText() const
{
    std::ostringstream out;
    out << "patterns v1\nseed " << seed << "\nperiod " << period << "\ninputs";
    for (const std::string& in : inputs) {
        out << ' ' << in;
    }
    out << "\n";
    for (const std::vector<bool>& row : rows) {
        for (const bool bit : row) {
            out << (bit ? '1' : '0');
        }
        out << "\n";
    }
    return out.str();
}

std::string PatternSet::digest() const
{
    return sha256Hex(canonicalText());
}

PatternSet generatePatterns(const NetlistDesc& desc, int count, std::uint64_t seed,
                            SimTime period)
{
    if (count < 1) {
        throw std::invalid_argument("generatePatterns: pattern count must be >= 1");
    }
    PatternSet set;
    set.inputs = desc.inputs;
    set.period = period;
    set.seed = seed;
    Rng rng(seed);
    set.rows.reserve(static_cast<std::size_t>(count));
    for (int k = 0; k < count; ++k) {
        std::vector<bool> row;
        row.reserve(desc.inputs.size());
        for (std::size_t i = 0; i < desc.inputs.size(); ++i) {
            row.push_back((rng.next() & 1u) != 0);
        }
        set.rows.push_back(std::move(row));
    }
    return set;
}

std::string netSaboteurName(const std::string& net)
{
    return "sab/" + net;
}

IngestTestbench::IngestTestbench(std::shared_ptr<const NetlistDesc> desc,
                                 std::shared_ptr<const PatternSet> patterns,
                                 IngestConfig config)
    : desc_(std::move(desc)), patterns_(std::move(patterns)), config_(std::move(config))
{
    const NetlistDesc& d = *desc_;
    const PatternSet& pat = *patterns_;
    if (config_.prefix.empty()) {
        config_.prefix = d.name;
    }
    const std::string& prefix = config_.prefix;
    if (pat.inputs != d.inputs) {
        throw std::invalid_argument("IngestTestbench: pattern set was generated for a "
                                    "different input list");
    }
    const NetIndex index(d);
    const int depth = combinationalDepth(d, index);
    if ((static_cast<SimTime>(depth) + 2) * config_.gateDelay >= config_.patternPeriod) {
        throw std::invalid_argument(
            "IngestTestbench: pattern period " + formatTime(config_.patternPeriod) +
            " is too short for combinational depth " + std::to_string(depth) +
            " at gate delay " + formatTime(config_.gateDelay));
    }

    auto& dig = sim().digital();

    // Signals first: for every net the driven side "<prefix>/<net>" and the
    // instrumented faulty side "<prefix>/<net>~f", in canonical net order so
    // signal creation (and with it process wake order and batch lane
    // compilation) depends only on the netlist digest.
    const std::size_t netCount = index.nets.size();
    std::vector<digital::LogicSignal*> driven(netCount);
    std::vector<digital::LogicSignal*> faulty(netCount);
    for (std::size_t n = 0; n < netCount; ++n) {
        driven[n] = &dig.logicSignal(prefix + "/" + index.nets[n], Logic::Zero);
        faulty[n] = &dig.logicSignal(prefix + "/" + index.nets[n] + "~f", Logic::Zero);
    }

    // One zero-delay saboteur per net: every net of the external design is an
    // injectable interconnect, exactly like the hand-written DUTs.
    for (std::size_t n = 0; n < netCount; ++n) {
        addDigitalSaboteur(dig.add<fault::DigitalSaboteur>(
            dig, netSaboteurName(index.nets[n]), *driven[n], *faulty[n]));
    }

    // Gates read the faulty sides and drive the driven sides, in net order
    // (gate outputs follow the inputs, sorted by name).
    for (std::size_t n = d.inputs.size(); n < netCount; ++n) {
        const std::size_t gi = index.gateOf[n];
        const NetlistGate& g = d.gates[gi];
        std::vector<digital::LogicSignal*> inputs;
        inputs.reserve(index.inputsBegin[gi + 1] - index.inputsBegin[gi]);
        for (std::size_t k = index.inputsBegin[gi]; k < index.inputsBegin[gi + 1]; ++k) {
            inputs.push_back(faulty[index.inputs[k]]);
        }
        dig.add<digital::Gate>(dig, prefix + "/" + g.name, g.kind, std::move(inputs),
                               *driven[n], config_.gateDelay);
    }

    // Stimulus: pattern k forces the primary inputs at k*period; only bits
    // that change are scheduled, so every force is a real event in both the
    // event-driven and the word kernel.
    auto& stimuli = dig.add<digital::StimulusSchedule>(dig, prefix + "/stimuli");
    std::vector<bool> previous(d.inputs.size(), false); // signals initialize to 0
    for (std::size_t k = 0; k < pat.rows.size(); ++k) {
        const std::vector<bool>& row = pat.rows[k];
        for (std::size_t i = 0; i < d.inputs.size(); ++i) {
            if (row[i] == previous[i]) {
                continue;
            }
            stimuli.at(static_cast<SimTime>(k) * pat.period, *driven[i],
                       row[i] ? Logic::One : Logic::Zero);
            previous[i] = row[i];
        }
    }
    for (std::size_t i = 0; i < d.inputs.size(); ++i) {
        dig.noteExternalDriver(*driven[i]);
    }

    // Observation: the faulty side of every primary output, so a stuck-at on
    // the output net itself is observable.
    for (const std::string& out : d.outputs) {
        observeDigital(prefix + "/" + out + "~f");
    }
    setDuration(static_cast<SimTime>(pat.rows.size()) * pat.period);
}

std::string IngestTestbench::outputSignalName(const std::string& net) const
{
    return config_.prefix + "/" + net + "~f";
}

std::vector<fault::FaultSpec> buildFaultList(const NetlistDesc& desc,
                                             const IngestConfig& config,
                                             const FaultListOptions& options)
{
    std::vector<fault::FaultSpec> faults;
    const std::vector<std::string> nets = desc.nets();
    if (options.stuckAt) {
        for (const std::string& net : nets) {
            faults.emplace_back(
                fault::StuckAtFault{netSaboteurName(net), Logic::Zero, 0, 0});
            faults.emplace_back(
                fault::StuckAtFault{netSaboteurName(net), Logic::One, 0, 0});
        }
    }
    if (options.setPulses) {
        // Mid-campaign, a quarter period into a pattern: inputs are stable,
        // so the pulse exercises pure combinational propagation.
        const SimTime count = config.patternCount;
        const SimTime t = (count / 2) * config.patternPeriod + config.patternPeriod / 4;
        for (const std::string& net : nets) {
            faults.emplace_back(
                fault::DigitalPulseFault{netSaboteurName(net), t, options.pulseWidth});
        }
    }
    return faults;
}

std::string faultListDigest(const std::vector<fault::FaultSpec>& faults)
{
    Sha256 hash;
    hash.update("faults v1\n");
    for (const fault::FaultSpec& f : faults) {
        hash.update(fault::describe(f));
        hash.update("\n");
    }
    return hash.finishHex();
}

fault::TestbenchFactory IngestWorkload::factory() const
{
    // The shared descriptions are read-only; each call elaborates a fresh
    // circuit, so the factory is safe to invoke from campaign workers.
    return [netlist = netlist, patterns = patterns, config = config] {
        return std::make_unique<IngestTestbench>(netlist, patterns, config);
    };
}

IngestWorkload makeWorkload(NetlistDesc desc, IngestConfig config,
                            const FaultListOptions& options)
{
    if (config.prefix.empty()) {
        config.prefix = desc.name;
    }
    IngestWorkload w;
    w.netlist = std::make_shared<const NetlistDesc>(std::move(desc));
    w.patterns = std::make_shared<const PatternSet>(generatePatterns(
        *w.netlist, config.patternCount, config.patternSeed, config.patternPeriod));
    w.config = std::move(config);
    w.faults = buildFaultList(*w.netlist, w.config, options);
    w.netlistDigest = w.netlist->digest();
    w.stimulusDigest = w.patterns->digest();
    w.faultDigest = faultListDigest(w.faults);
    return w;
}

std::string renderAnsText(const IngestWorkload& workload,
                          const campaign::CampaignReport& report)
{
    std::ostringstream out;
    out << "# gfi ingest verdicts v1\n";
    out << "# circuit " << workload.netlist->name << "\n";
    out << "# netlist " << workload.netlistDigest << "\n";
    out << "# stimulus " << workload.stimulusDigest << "\n";
    out << "# faults " << workload.faultDigest << "\n";
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        const campaign::RunResult& r = report.runs[i];
        const bool detected = r.outcome != campaign::Outcome::Silent;
        out << i << '\t' << fault::describe(r.fault) << '\t' << campaign::toString(r.outcome)
            << '\t' << (detected ? 1 : 0) << "\n";
    }
    return out.str();
}

} // namespace gfi::io

// Tests for the external-netlist ingestion subsystem (src/io): the two
// parser grammars, digest canonicalization, seeded pattern generation, the
// instrumented elaboration (differential against a hand-built DUT and
// between backends/worker widths), and the content-addressed golden store
// (byte-identical replay, corruption hard errors, the PRE009 stale-cache
// gate).

#include "campaign_harness.hpp"

#include "core/report.hpp"
#include "digital/gates.hpp"
#include "digital/stimulus.hpp"
#include "core/saboteur.hpp"
#include "io/golden_store.hpp"
#include "io/ingest.hpp"
#include "io/netlist.hpp"
#include "io/sha256.hpp"
#include "lint/preflight.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace gfi::io {
namespace {

using test::slurp;

const char* kC17Bench = R"(# c17
INPUT(N1)
INPUT(N2)
INPUT(N3)
INPUT(N6)
INPUT(N7)
OUTPUT(N22)
OUTPUT(N23)
N10 = NAND(N1, N3)
N11 = NAND(N3, N6)
N16 = NAND(N2, N11)
N19 = NAND(N11, N7)
N22 = NAND(N10, N16)
N23 = NAND(N16, N19)
)";

const char* kC17Verilog = R"(// c17, structural verilog
module c17 (N1, N2, N3, N6, N7, N22, N23);
  input N1, N2, N3, N6, N7;
  output N22, N23;
  wire N10, N11, N16, N19;
  nand g10 (N10, N1, N3);
  nand g11 (N11, N3, N6);
  nand g16 (N16, N2, N11);
  nand g19 (N19, N11, N7);
  nand g22 (N22, N10, N16);
  nand g23 (N23, N16, N19);
endmodule
)";

/// The classification text two campaigns must agree on byte-for-byte:
/// per-run fault description, outcome and divergence metrics. Timing
/// diagnostics and backend provenance (batch lane) are deliberately
/// excluded — those legitimately differ between kernels.
std::string classificationText(const campaign::CampaignReport& report)
{
    std::string out;
    for (const campaign::RunResult& r : report.runs) {
        out += fault::describe(r.fault);
        out += '\t';
        out += campaign::toString(r.outcome);
        out += '\t';
        out += std::to_string(r.firstOutputError);
        out += '\t';
        out += std::to_string(r.totalOutputErrorTime);
        for (const std::string& s : r.erredSignals) {
            out += '\t';
            out += s;
        }
        out += '\n';
    }
    return out;
}

std::string freshDir(const std::string& tag)
{
    const std::string path = ::testing::TempDir() + "gfi_io_" + tag;
    std::filesystem::remove_all(path);
    return path;
}

// --- SHA-256 ---------------------------------------------------------------

TEST(Sha256, Fips180Vectors)
{
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    // Multi-block: one million 'a' (streamed, exercises buffering).
    Sha256 h;
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i) {
        h.update(chunk);
    }
    EXPECT_EQ(h.finishHex(),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

std::string digestWith(detail::Sha256Blocks blocks, std::string_view data)
{
    Sha256 h(blocks);
    h.update(data);
    return h.finishHex();
}

/// @p data fed in seeded pieces of 0..200 bytes, so every buffering path
/// (partial fill, exact fill, multi-block direct run) is taken.
std::string chunkedDigestWith(detail::Sha256Blocks blocks, std::string_view data,
                              std::uint64_t seed)
{
    Rng rng(seed);
    Sha256 h(blocks);
    std::size_t at = 0;
    while (at < data.size()) {
        const std::size_t n =
            std::min<std::size_t>(static_cast<std::size_t>(rng.below(201)), data.size() - at);
        h.update(data.substr(at, n));
        at += n;
    }
    return h.finishHex();
}

void expectFips180(detail::Sha256Blocks blocks)
{
    EXPECT_EQ(digestWith(blocks, ""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(digestWith(blocks, "abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(digestWith(blocks, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(digestWith(blocks, "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                                 "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
              "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
    EXPECT_EQ(digestWith(blocks, std::string(1000000, 'a')),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, HardwareAndScalarBlocksAgree)
{
    std::string data(64 * 1024, '\0');
    Rng rng(2718);
    for (char& c : data) {
        c = static_cast<char>(rng.below(256));
    }
    const detail::Sha256Blocks scalar = detail::sha256ScalarBlocks();
    expectFips180(scalar);
    std::vector<std::string> reference;
    for (std::size_t len = 0; len <= 1100; ++len) {
        reference.push_back(digestWith(scalar, std::string_view(data).substr(0, len)));
    }
    const std::string streamed = digestWith(scalar, data);
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        EXPECT_EQ(chunkedDigestWith(scalar, data, seed), streamed) << "seed " << seed;
    }

    const detail::Sha256Blocks hardware = detail::sha256HardwareBlocks();
    if (hardware == nullptr) {
        GTEST_SKIP() << "no SHA extensions on this CPU or build: only the scalar "
                        "block function was checked";
    }
    expectFips180(hardware);
    for (std::size_t len = 0; len <= 1100; ++len) {
        ASSERT_EQ(digestWith(hardware, std::string_view(data).substr(0, len)), reference[len])
            << "length " << len;
    }
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        EXPECT_EQ(chunkedDigestWith(hardware, data, seed), streamed) << "seed " << seed;
    }
    // The default hasher picks the hardware block function.
    EXPECT_EQ(sha256Hex(data), streamed);
}

TEST(Sha256, LooksLike)
{
    EXPECT_TRUE(looksLikeSha256(sha256Hex("x")));
    EXPECT_FALSE(looksLikeSha256("deadbeef"));
    EXPECT_FALSE(looksLikeSha256(std::string(64, 'g')));
}

// --- parsing ---------------------------------------------------------------

TEST(NetlistParse, BenchC17)
{
    const NetlistDesc d = parseNetlist(kC17Bench, "c17.bench");
    EXPECT_EQ(d.name, "c17");
    EXPECT_EQ(d.inputs, (std::vector<std::string>{"N1", "N2", "N3", "N6", "N7"}));
    EXPECT_EQ(d.outputs, (std::vector<std::string>{"N22", "N23"}));
    ASSERT_EQ(d.gates.size(), 6u);
    EXPECT_EQ(d.gates[0].kind, digital::GateKind::Nand);
    EXPECT_EQ(d.gates[0].output, "N10");
    EXPECT_EQ(d.nets().size(), 11u); // 5 inputs + 6 gate outputs
}

TEST(NetlistParse, VerilogMatchesBenchDigest)
{
    const NetlistDesc bench = parseNetlist(kC17Bench, "c17.bench");
    const NetlistDesc verilog = parseNetlist(kC17Verilog, "c17.v");
    EXPECT_EQ(verilog.name, "c17");
    EXPECT_EQ(bench.canonicalText(), verilog.canonicalText());
    EXPECT_EQ(bench.digest(), verilog.digest());
}

TEST(NetlistParse, AutoDetectsFormat)
{
    EXPECT_EQ(parseNetlist(kC17Verilog, "x").name, "c17"); // "module" => verilog
    EXPECT_EQ(parseNetlist(kC17Bench, "c17.bench").gates.size(), 6u);
}

TEST(NetlistParse, DigestInvariances)
{
    const std::string base = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
    const std::string digest = parseNetlist(base, "t").digest();
    // Comments, whitespace, keyword case: no digest change.
    EXPECT_EQ(parseNetlist("# hi\n INPUT( a )\nINPUT(b)\nOUTPUT(y)\n y  =  and ( a , b )\n", "t")
                  .digest(),
              digest);
    // Commutative input order: no digest change.
    EXPECT_EQ(parseNetlist("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(b, a)\n", "t").digest(),
              digest);
    // Renamed net: different design, different digest.
    EXPECT_NE(parseNetlist("INPUT(a)\nINPUT(c)\nOUTPUT(y)\ny = AND(a, c)\n", "t").digest(),
              digest);
    // Input declaration order is semantic (stimulus bit order): different.
    EXPECT_NE(parseNetlist("INPUT(b)\nINPUT(a)\nOUTPUT(y)\ny = AND(a, b)\n", "t").digest(),
              digest);
}

TEST(NetlistParse, GateOrderDoesNotChangeDigest)
{
    const std::string forward =
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nm = NAND(a, b)\nz = NOT(m)\n";
    const std::string reversed =
        "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NOT(m)\nm = NAND(a, b)\n";
    EXPECT_EQ(parseNetlist(forward, "t").digest(), parseNetlist(reversed, "t").digest());
}

TEST(NetlistParse, Errors)
{
    // Unknown gate keyword.
    EXPECT_THROW((void)parseNetlist("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "t"),
                 NetlistParseError);
    // Multiply-driven net.
    EXPECT_THROW(
        (void)parseNetlist("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n", "t"),
        NetlistParseError);
    // Undriven read.
    EXPECT_THROW((void)parseNetlist("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n", "t"),
                 NetlistParseError);
    // Self-loop.
    EXPECT_THROW((void)parseNetlist("INPUT(a)\nOUTPUT(y)\ny = AND(a, y)\n", "t"),
                 NetlistParseError);
    // Arity: NOT takes exactly one input.
    EXPECT_THROW((void)parseNetlist("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n", "t"),
                 NetlistParseError);
    // Undriven primary output.
    EXPECT_THROW((void)parseNetlist("INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(a)\n", "t"),
                 NetlistParseError);
    // Error messages carry source and line.
    try {
        (void)parseNetlist("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n", "bad.bench");
        FAIL() << "expected NetlistParseError";
    } catch (const NetlistParseError& e) {
        EXPECT_EQ(e.line(), 3);
        EXPECT_NE(std::string(e.what()).find("bad.bench:3"), std::string::npos);
    }
}

// --- patterns and fault lists ----------------------------------------------

TEST(Patterns, DeterministicAndSeedSensitive)
{
    const NetlistDesc d = parseNetlist(kC17Bench, "c17.bench");
    const PatternSet a = generatePatterns(d, 32, 7, 10 * kNanosecond);
    const PatternSet b = generatePatterns(d, 32, 7, 10 * kNanosecond);
    const PatternSet c = generatePatterns(d, 32, 8, 10 * kNanosecond);
    ASSERT_EQ(a.rows.size(), 32u);
    ASSERT_EQ(a.rows[0].size(), d.inputs.size());
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_NE(a.digest(), c.digest());
    EXPECT_EQ(a.rows, b.rows);
}

TEST(Patterns, WorkloadDigestsCoverAllThreeAxes)
{
    NetlistDesc d = parseNetlist(kC17Bench, "c17.bench");
    IngestConfig cfg;
    cfg.patternCount = 8;
    const IngestWorkload base = makeWorkload(d, cfg);
    EXPECT_EQ(base.faults.size(), 2 * base.netlist->nets().size()); // SA0+SA1 per net

    IngestConfig seeded = cfg;
    seeded.patternSeed = 99;
    EXPECT_NE(makeWorkload(d, seeded).stimulusDigest, base.stimulusDigest);
    EXPECT_EQ(makeWorkload(d, seeded).netlistDigest, base.netlistDigest);

    FaultListOptions withSet;
    withSet.setPulses = true;
    EXPECT_NE(makeWorkload(d, cfg, withSet).faultDigest, base.faultDigest);
}

// --- elaboration: differential and cross-backend identity -------------------

/// Hand-built mirror of the 3-gate "mini" netlist below, written in the
/// hand-authored DUT idiom (explicit signals, gates, saboteurs, stimulus) —
/// the reference the ingested elaboration must match byte for byte.
class MiniHandBuilt : public fault::Testbench {
public:
    explicit MiniHandBuilt(const PatternSet& patterns)
    {
        using digital::Logic;
        auto& dig = sim().digital();
        // Same canonical net order as NetlistDesc::nets(): inputs a, b, c,
        // then gate outputs sorted: n1, y, z.
        const std::vector<std::string> nets{"a", "b", "c", "n1", "y", "z"};
        std::map<std::string, digital::LogicSignal*> driven;
        std::map<std::string, digital::LogicSignal*> faulty;
        for (const std::string& n : nets) {
            driven[n] = &dig.logicSignal("mini/" + n, Logic::Zero);
            faulty[n] = &dig.logicSignal("mini/" + n + "~f", Logic::Zero);
        }
        for (const std::string& n : nets) {
            addDigitalSaboteur(
                dig.add<fault::DigitalSaboteur>(dig, "sab/" + n, *driven[n], *faulty[n]));
        }
        dig.add<digital::Gate>(dig, "mini/n1", digital::GateKind::Nand,
                               std::vector<digital::LogicSignal*>{faulty["a"], faulty["b"]},
                               *driven["n1"]);
        dig.add<digital::Gate>(dig, "mini/y", digital::GateKind::Xor,
                               std::vector<digital::LogicSignal*>{faulty["c"], faulty["n1"]},
                               *driven["y"]);
        dig.add<digital::Gate>(dig, "mini/z", digital::GateKind::Not,
                               std::vector<digital::LogicSignal*>{faulty["n1"]},
                               *driven["z"]);
        auto& stim = dig.add<digital::StimulusSchedule>(dig, "mini/stimuli");
        const std::vector<std::string> pis{"a", "b", "c"};
        std::vector<bool> prev(pis.size(), false);
        for (std::size_t k = 0; k < patterns.rows.size(); ++k) {
            for (std::size_t i = 0; i < pis.size(); ++i) {
                if (patterns.rows[k][i] == prev[i]) {
                    continue;
                }
                stim.at(static_cast<SimTime>(k) * patterns.period, *driven[pis[i]],
                        patterns.rows[k][i] ? Logic::One : Logic::Zero);
                prev[i] = patterns.rows[k][i];
            }
        }
        for (const std::string& pi : pis) {
            dig.noteExternalDriver(*driven[pi]);
        }
        observeDigital("mini/y~f");
        observeDigital("mini/z~f");
        setDuration(static_cast<SimTime>(patterns.rows.size()) * patterns.period);
    }
};

IngestWorkload miniWorkload()
{
    NetlistDesc d = parseNetlist(
        "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\n"
        "n1 = NAND(a, b)\ny = XOR(c, n1)\nz = NOT(n1)\n",
        "mini.bench");
    IngestConfig cfg;
    cfg.patternCount = 24;
    return makeWorkload(std::move(d), cfg);
}

TEST(IngestDifferential, MatchesHandBuiltDut)
{
    const IngestWorkload w = miniWorkload();

    campaign::CampaignRunner ingested(w.factory());
    ingested.setRecordTiming(false);
    const auto ingestedReport = ingested.run(w.faults);

    auto patterns = w.patterns;
    campaign::CampaignRunner hand(
        [patterns] { return std::make_unique<MiniHandBuilt>(*patterns); });
    hand.setRecordTiming(false);
    const auto handReport = hand.run(w.faults);

    ASSERT_EQ(ingestedReport.runs.size(), handReport.runs.size());
    EXPECT_EQ(classificationText(ingestedReport), classificationText(handReport));
    // Identical construction => identical reports down to the last byte.
    EXPECT_EQ(campaign::reportToJson(ingestedReport), campaign::reportToJson(handReport));
}

TEST(IngestDifferential, BackendsAndWorkerWidthsAgree)
{
    const IngestWorkload w = miniWorkload();

    auto runWith = [&](bool batch, unsigned workers, bool collapse) {
        campaign::CampaignRunner runner(w.factory());
        runner.setRecordTiming(false);
        runner.setBatchBackend(batch);
        runner.setWorkers(workers);
        runner.setFaultCollapsing(collapse);
        return runner.run(w.faults);
    };

    const std::string reference = classificationText(runWith(false, 1, false));
    EXPECT_EQ(classificationText(runWith(false, 8, false)), reference)
        << "8-worker event-driven diverged from serial";
    EXPECT_EQ(classificationText(runWith(true, 1, false)), reference)
        << "bit-parallel batch diverged from event-driven";
    EXPECT_EQ(classificationText(runWith(true, 8, false)), reference)
        << "8-worker batch diverged";
    EXPECT_EQ(classificationText(runWith(false, 1, true)), reference)
        << "fault collapsing changed classifications";
}

/// Message of the invalid_argument the elaboration of @p desc throws at
/// @p period, or "" when it elaborates.
std::string elaborationError(const NetlistDesc& desc, SimTime period)
{
    IngestConfig cfg;
    cfg.patternCount = 4;
    cfg.patternPeriod = period;
    try {
        (void)makeWorkload(desc, cfg).factory()();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(Ingest, PeriodTooShortForDepthThrows)
{
    const NetlistDesc c17 = parseNetlist(kC17Bench, "c17.bench");
    IngestConfig cfg;
    cfg.patternCount = 4;
    cfg.patternPeriod = 2 * digital::kDefaultGateDelay; // depth 3 cannot settle
    EXPECT_THROW((void)makeWorkload(c17, cfg).factory()(), std::invalid_argument);

    // The exact boundary: the settle budget is (depth + 2) gate delays.
    const SimTime c17Budget = 5 * digital::kDefaultGateDelay;
    EXPECT_NE(elaborationError(c17, c17Budget).find("combinational depth 3 "),
              std::string::npos);
    EXPECT_EQ(elaborationError(c17, c17Budget + kFemtosecond), "");

    // A 12-inverter chain listed from the last gate back to the first: each
    // fixed-point sweep over the gate list settles only one more gate.
    constexpr int kChain = 12;
    std::string text = "INPUT(a)\nOUTPUT(n12)\n";
    for (int i = kChain; i >= 1; --i) {
        const std::string in = i == 1 ? "a" : "n" + std::to_string(i - 1);
        text += "n" + std::to_string(i) + " = NOT(" + in + ")\n";
    }
    const NetlistDesc chain = parseNetlist(text, "chain.bench");
    ASSERT_EQ(chain.gates.front().output, "n12");
    const SimTime chainBudget = (kChain + 2) * digital::kDefaultGateDelay;
    EXPECT_NE(elaborationError(chain, chainBudget).find("combinational depth 12 "),
              std::string::npos);
    EXPECT_EQ(elaborationError(chain, chainBudget + kFemtosecond), "");
}

TEST(Ingest, C17ElaborationOrder)
{
    // Signal and process creation order fix process wake order and batch
    // lane compilation: nets in nets() order (inputs in declaration order,
    // then gate outputs sorted by name), saboteurs in net order, then gates.
    const IngestWorkload w = makeWorkload(parseNetlist(kC17Bench, "c17.bench"));
    const auto tb = w.factory()();
    const digital::Circuit& circuit = tb->sim().digital();
    const std::vector<std::string> expectedSignals{
        "c17/N1",  "c17/N1~f",  "c17/N2",  "c17/N2~f",  "c17/N3",  "c17/N3~f",
        "c17/N6",  "c17/N6~f",  "c17/N7",  "c17/N7~f",  "c17/N10", "c17/N10~f",
        "c17/N11", "c17/N11~f", "c17/N16", "c17/N16~f", "c17/N19", "c17/N19~f",
        "c17/N22", "c17/N22~f", "c17/N23", "c17/N23~f"};
    EXPECT_EQ(circuit.signalNames(), expectedSignals);
    std::vector<std::string> processes;
    for (const digital::ProcessConnectivity& conn : circuit.connectivity()) {
        processes.push_back(conn.process->name());
    }
    const std::vector<std::string> expectedProcesses{
        "sab/N1/pass",    "sab/N2/pass",    "sab/N3/pass",    "sab/N6/pass",
        "sab/N7/pass",    "sab/N10/pass",   "sab/N11/pass",   "sab/N16/pass",
        "sab/N19/pass",   "sab/N22/pass",   "sab/N23/pass",   "c17/g_N10/eval",
        "c17/g_N11/eval", "c17/g_N16/eval", "c17/g_N19/eval", "c17/g_N22/eval",
        "c17/g_N23/eval"};
    EXPECT_EQ(processes, expectedProcesses);
    // Gate inputs are sorted by net name, not by net number: N16 reads N11
    // before N2.
    std::vector<std::string> n16Inputs;
    for (const digital::SignalBase* in : circuit.connectivity()[13].triggers) {
        n16Inputs.push_back(in->name());
    }
    EXPECT_EQ(n16Inputs, (std::vector<std::string>{"c17/N11~f", "c17/N2~f"}));
}

// --- golden store ----------------------------------------------------------

TEST(GoldenStoreTest, MissThenHitReplaysByteIdentically)
{
    const std::string root = freshDir("store_roundtrip");
    GoldenStore store(root);
    const IngestWorkload w = miniWorkload();

    campaign::CampaignRunner runner(w.factory());
    const CachedCampaign cold = runCampaignCached(runner, w, store);
    EXPECT_FALSE(cold.hit);
    EXPECT_TRUE(store.contains(CacheKey::of(w)));

    // The warm pass must not simulate: give it a runner whose factory throws.
    campaign::CampaignRunner poisoned([]() -> std::unique_ptr<fault::Testbench> {
        throw std::logic_error("store hit must not build testbenches");
    });
    const CachedCampaign warm = runCampaignCached(poisoned, w, store);
    EXPECT_TRUE(warm.hit);
    EXPECT_EQ(warm.key, cold.key);
    EXPECT_EQ(campaign::reportToJson(warm.report), campaign::reportToJson(cold.report));
    EXPECT_EQ(renderAnsText(w, warm.report), renderAnsText(w, cold.report));
}

TEST(GoldenStoreTest, LookupMissIsNullopt)
{
    GoldenStore store(freshDir("store_miss"));
    const CacheKey key{sha256Hex("n"), sha256Hex("s"), sha256Hex("f")};
    EXPECT_FALSE(store.contains(key));
    EXPECT_FALSE(store.lookup(key).has_value());
}

TEST(GoldenStoreTest, CorruptedVerdictsAreAHardError)
{
    const std::string root = freshDir("store_corrupt");
    GoldenStore store(root);
    const IngestWorkload w = miniWorkload();
    campaign::CampaignRunner runner(w.factory());
    const CachedCampaign cold = runCampaignCached(runner, w, store);

    // Flip one byte of the stored verdicts; the recorded SHA-256 must now
    // refuse the replay outright instead of returning doctored results.
    const std::filesystem::path verdicts =
        std::filesystem::path(store.entryDir(cold.key)) / "verdicts.jsonl";
    std::string text;
    {
        std::ifstream in(verdicts, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    ASSERT_FALSE(text.empty());
    const std::size_t at = text.find("stuck-at-0");
    ASSERT_NE(at, std::string::npos);
    text[at] = 'X';
    {
        std::ofstream out(verdicts, std::ios::binary | std::ios::trunc);
        out << text;
    }
    EXPECT_THROW((void)store.lookup(CacheKey::of(w)), GoldenStoreError);
}

TEST(GoldenStoreTest, NamePointerAndStaleCachePre009)
{
    const std::string root = freshDir("store_stale");
    GoldenStore store(root);
    const IngestWorkload w = miniWorkload();
    campaign::CampaignRunner runner(w.factory());
    (void)runCampaignCached(runner, w, store);

    // Same name, same digest: resolves to the verified entry.
    const auto entry = store.lookupByName("mini", w.netlistDigest);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->key.netlistDigest, w.netlistDigest);
    EXPECT_EQ(entry->verdicts.size(), w.faults.size());

    // Same name, edited design: the stale-cache gate must fire with PRE009
    // and both digests in the diagnostic.
    const std::string editedDigest = sha256Hex("a different canonical netlist");
    try {
        (void)store.lookupByName("mini", editedDigest);
        FAIL() << "expected lint::PreflightError";
    } catch (const lint::PreflightError& e) {
        EXPECT_TRUE(e.report().hasRule("PRE009"));
        const std::string what = e.what();
        EXPECT_NE(what.find(w.netlistDigest), std::string::npos)
            << "diagnostic must name the stored digest";
        EXPECT_NE(what.find(editedDigest), std::string::npos)
            << "diagnostic must name the loaded circuit's digest";
    }
}

TEST(GoldenStoreTest, FullDiskPointerWriteIsAStoreError)
{
    // /dev/full accepts the open and the buffered write; only the close
    // reports the full disk.
    if (!std::filesystem::exists("/dev/full")) {
        GTEST_SKIP() << "/dev/full is absent";
    }
    const std::string root = freshDir("store_full_disk");
    GoldenStore store(root);
    const IngestWorkload w = miniWorkload();
    campaign::CampaignRunner runner(w.factory());
    const CachedCampaign cold = runCampaignCached(runner, w, store);
    const std::filesystem::path namePath =
        std::filesystem::path(root) / "names" / "mini.json";
    const std::string pointer = slurp(namePath);

    // The next put() stages its name pointer onto the full disk: it must
    // throw, commit no entry and leave the committed pointer as it was.
    std::filesystem::create_symlink("/dev/full",
                                    std::filesystem::path(root) / "tmp" / "mini.name.json");
    const CacheKey other{sha256Hex("another netlist"), sha256Hex("s"), sha256Hex("f")};
    EXPECT_THROW(store.put(other, "mini", cold.report), GoldenStoreError);
    EXPECT_FALSE(store.contains(other));
    EXPECT_EQ(slurp(namePath), pointer);
    ASSERT_TRUE(store.namePointer("mini").has_value());
    EXPECT_EQ(store.namePointer("mini")->key, cold.key);
}

/// Whole-file write helper for tampering with store entries.

void spit(const std::filesystem::path& path, const std::string& text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

TEST(GoldenStoreTest, MalformedDocumentsAreStoreErrors)
{
    const std::string root = freshDir("store_malformed");
    GoldenStore store(root);
    const IngestWorkload w = miniWorkload();
    campaign::CampaignRunner runner(w.factory());
    const CachedCampaign cold = runCampaignCached(runner, w, store);
    const CacheKey key = CacheKey::of(w);

    const std::filesystem::path dir = store.entryDir(cold.key);
    const std::filesystem::path metaPath = dir / "meta.json";
    const std::filesystem::path verdictsPath = dir / "verdicts.jsonl";
    const std::filesystem::path namePath =
        std::filesystem::path(root) / "names" / "mini.json";
    const std::string meta = slurp(metaPath);
    const std::string verdicts = slurp(verdictsPath);
    const std::string pointer = slurp(namePath);
    const std::string runs = "\"runs\": " + std::to_string(w.faults.size());
    ASSERT_NE(meta.find(runs), std::string::npos) << meta;

    // meta.json is not itself hashed: truncated or garbled, it still carries
    // valid payload digests, so only the strict reader can refuse it.
    const std::string closing = "\n}\n";
    ASSERT_EQ(meta.substr(meta.size() - closing.size()), closing);
    const std::vector<std::string> badMetas = {
        meta.substr(0, meta.size() - closing.size()),
        meta.substr(0, meta.size() / 2),
        meta + "}",
        meta + "garbage",
        std::string(meta).replace(meta.find(runs), runs.size(), runs + "x"),
        std::string(meta).replace(meta.find(runs), runs.size(), "\"runs\": -1"),
        std::string(meta).replace(meta.find(runs), runs.size(), "\"runs\": 1.5"),
        std::string(meta).replace(meta.find(runs), runs.size(), "\"runs\": true"),
        "[" + meta + "]",
    };
    for (const std::string& bad : badMetas) {
        spit(metaPath, bad);
        EXPECT_THROW((void)store.lookup(key), GoldenStoreError) << bad;
        EXPECT_THROW((void)store.lookupByName("mini", w.netlistDigest), GoldenStoreError)
            << bad;
    }
    spit(metaPath, meta);
    ASSERT_TRUE(store.lookup(key).has_value());

    // A garbled verdict line re-hashed into meta.json passes the digest
    // check; the strict journal reader must still refuse to replay it.
    const std::string firstIndex = "\"index\": 0, ";
    ASSERT_EQ(verdicts.rfind("{" + firstIndex, 0), 0u);
    const std::string firstLine = verdicts.substr(0, verdicts.find('\n'));
    const std::vector<std::string> badVerdicts = {
        "{\"index\": x, " + verdicts.substr(firstIndex.size() + 1),
        "{\"index\": -1, " + verdicts.substr(firstIndex.size() + 1),
        firstLine + "}" + verdicts.substr(firstLine.size()),
        firstLine.substr(0, firstLine.size() - 1) + verdicts.substr(firstLine.size()),
    };
    const std::string verdictsSha = sha256Hex(verdicts);
    for (const std::string& bad : badVerdicts) {
        spit(verdictsPath, bad);
        spit(metaPath, std::string(meta).replace(meta.find(verdictsSha), verdictsSha.size(),
                                                 sha256Hex(bad)));
        EXPECT_THROW((void)store.lookup(key), GoldenStoreError) << bad;
    }
    spit(verdictsPath, verdicts);
    spit(metaPath, meta);

    // A garbled name pointer.
    const std::vector<std::string> badPointers = {
        pointer.substr(0, pointer.size() - closing.size()),
        pointer + "x",
        std::string(pointer).replace(pointer.find("\"key\": \""), 8, "\"key\": 7, \"x\": \""),
        "{}",
        "",
    };
    for (const std::string& bad : badPointers) {
        spit(namePath, bad);
        EXPECT_THROW((void)store.lookupByName("mini", w.netlistDigest), GoldenStoreError)
            << bad;
    }
    spit(namePath, pointer);
    EXPECT_TRUE(store.lookupByName("mini", w.netlistDigest).has_value());
}

// An entry stores each verdict once: its journal lines, addressed by the
// digests in meta.json. A hit rebuilds the report from them.
TEST(GoldenStoreTest, EntryHoldsMetaAndVerdictsOnly)
{
    GoldenStore store(freshDir("store_layout"));
    const IngestWorkload w = miniWorkload();
    campaign::CampaignRunner runner(w.factory());
    const CachedCampaign cold = runCampaignCached(runner, w, store);
    std::set<std::string> files;
    for (const auto& f : std::filesystem::directory_iterator(store.entryDir(cold.key))) {
        files.insert(f.path().filename().string());
    }
    EXPECT_EQ(files, (std::set<std::string>{"meta.json", "verdicts.jsonl"}));
    EXPECT_EQ(slurp(std::filesystem::path(store.entryDir(cold.key)) / "meta.json")
                  .find("report"),
              std::string::npos);
}

// Entries recorded before the report copy was dropped carry report.json and
// a "report_sha256" meta key; both are ignored, so such an entry replays.
TEST(GoldenStoreTest, OldLayoutEntryWithReportStillReplays)
{
    GoldenStore store(freshDir("store_old_layout"));
    const IngestWorkload w = miniWorkload();
    campaign::CampaignRunner runner(w.factory());
    const CachedCampaign cold = runCampaignCached(runner, w, store);
    const std::filesystem::path dir = store.entryDir(cold.key);
    const std::string reportJson = campaign::reportToJson(cold.report);
    spit(dir / "report.json", reportJson);
    std::string meta = slurp(dir / "meta.json");
    const std::string closing = "\n}\n";
    ASSERT_EQ(meta.substr(meta.size() - closing.size()), closing);
    meta.insert(meta.size() - closing.size(),
                ",\n  \"report_sha256\": \"" + sha256Hex(reportJson) + "\"");
    spit(dir / "meta.json", meta);

    campaign::CampaignRunner poisoned([]() -> std::unique_ptr<fault::Testbench> {
        throw std::logic_error("store hit must not build testbenches");
    });
    const CachedCampaign warm = runCampaignCached(poisoned, w, store);
    EXPECT_TRUE(warm.hit);
    EXPECT_EQ(campaign::reportToJson(warm.report), reportJson);
}

TEST(Preflight, StoredDigestRule)
{
    const std::string d = sha256Hex("same");
    EXPECT_TRUE(lint::preflightStoredDigest("store:x", d, d).clean());
    const lint::Report stale = lint::preflightStoredDigest("store:x", sha256Hex("a"),
                                                           sha256Hex("b"));
    EXPECT_TRUE(stale.hasRule("PRE009"));
    EXPECT_EQ(stale.count(lint::Severity::Error), 1u);
}

TEST(ReportFromEntries, RejectsMismatchedFaultList)
{
    const IngestWorkload w = miniWorkload();
    campaign::CampaignRunner runner(w.factory());
    runner.setRecordTiming(false);
    const auto report = runner.run(w.faults);

    std::vector<campaign::JournalEntry> entries;
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        const auto parsed = campaign::CampaignJournal::parseLine(
            campaign::CampaignJournal::entryToJson(i, report.runs[i]));
        ASSERT_TRUE(parsed.has_value());
        entries.push_back(*parsed);
    }
    // Round trip reproduces the live report byte for byte.
    const auto rebuilt = campaign::reportFromEntries(w.faults, entries);
    EXPECT_EQ(campaign::reportToJson(rebuilt), campaign::reportToJson(report));

    // A different fault list must be rejected, not silently replayed.
    auto wrongFaults = w.faults;
    std::swap(wrongFaults.front(), wrongFaults.back());
    EXPECT_THROW((void)campaign::reportFromEntries(wrongFaults, entries),
                 std::runtime_error);
    // A truncated entry set must be rejected too.
    entries.pop_back();
    EXPECT_THROW((void)campaign::reportFromEntries(w.faults, entries), std::runtime_error);
}

} // namespace
} // namespace gfi::io

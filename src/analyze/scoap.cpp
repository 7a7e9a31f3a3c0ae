#include "analyze/scoap.hpp"

#include "analyze/graph.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

#include <algorithm>
#include <map>
#include <queue>

namespace gfi::analyze {

namespace {

using digital::ProcessConnectivity;
using digital::SignalBase;

std::int64_t satAdd(std::int64_t a, std::int64_t b)
{
    const std::int64_t sum = a + b;
    return sum >= kInfCost ? kInfCost : sum;
}

} // namespace

TestabilityReport scoreTestability(const SignalGraph& g)
{
    const std::vector<NodeInfo>& nodes = g.nodes();
    const std::size_t n = nodes.size();

    std::vector<std::vector<const ProcessConnectivity*>> driversOf(n);
    for (const ProcessConnectivity* p : g.processes()) {
        for (SignalBase* s : p->drives) {
            if (const int idx = g.indexOf(s); idx >= 0) {
                driversOf[static_cast<std::size_t>(idx)].push_back(p);
            }
        }
    }

    // --- controllability: forward, in level order -------------------------
    std::vector<std::int64_t> cc(n, kInfCost);
    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (nodes[i].level >= 0) {
            order.push_back(i);
        }
    }
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return nodes[a].level < nodes[b].level;
    });
    for (const std::size_t i : order) {
        std::int64_t best = kInfCost;
        if (nodes[i].external || !nodes[i].driven) {
            best = 1;
        }
        for (const ProcessConnectivity* p : driversOf[i]) {
            if (p->sequential) {
                best = std::min(best, kSeqCost);
                continue;
            }
            std::int64_t cost = 1;
            for (SignalBase* s : SignalGraph::inputsOf(*p)) {
                const int idx = g.indexOf(s);
                cost = satAdd(cost, idx < 0 ? 1 : cc[static_cast<std::size_t>(idx)]);
            }
            best = std::min(best, cost);
        }
        cc[i] = best;
    }

    // --- observability: Dijkstra on the reversed graph --------------------
    // Edge drive -> input, cost 1 + side inputs + kSeqCost when sequential.
    std::vector<std::vector<std::pair<std::size_t, std::int64_t>>> radj(n);
    for (const ProcessConnectivity* p : g.processes()) {
        const std::vector<SignalBase*> inputs = SignalGraph::inputsOf(*p);
        if (inputs.empty()) {
            continue;
        }
        const std::int64_t w = 1 + static_cast<std::int64_t>(inputs.size()) - 1 +
                               (p->sequential ? kSeqCost : 0);
        for (SignalBase* d : p->drives) {
            const int di = g.indexOf(d);
            if (di < 0) {
                continue;
            }
            for (SignalBase* s : inputs) {
                if (const int si = g.indexOf(s); si >= 0) {
                    radj[static_cast<std::size_t>(di)].emplace_back(
                        static_cast<std::size_t>(si), w);
                }
            }
        }
    }
    std::vector<std::int64_t> co(n, -1);
    using Item = std::pair<std::int64_t, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    const auto seed = [&](std::size_t i) {
        if (co[i] != 0) {
            co[i] = 0;
            heap.emplace(0, i);
        }
    };
    for (std::size_t i = 0; i < n; ++i) {
        if (nodes[i].observedTrace || nodes[i].watched) {
            seed(i);
        }
    }
    // Inputs of processes belonging to a component with a compared state
    // hook: a perturbation there lands directly in classifier-visible state.
    for (const std::string& hook : g.observedStateHooks()) {
        const digital::Component* comp = g.componentOfHook(hook);
        if (comp == nullptr) {
            continue;
        }
        const std::string& prefix = comp->name();
        for (const ProcessConnectivity* p : g.processes()) {
            const std::string& pn = p->process->name();
            if (pn.compare(0, prefix.size(), prefix) != 0 ||
                (pn.size() > prefix.size() && pn[prefix.size()] != '/')) {
                continue;
            }
            for (SignalBase* s : SignalGraph::inputsOf(*p)) {
                if (const int idx = g.indexOf(s); idx >= 0) {
                    seed(static_cast<std::size_t>(idx));
                }
            }
        }
    }
    while (!heap.empty()) {
        const auto [d, v] = heap.top();
        heap.pop();
        if (co[v] >= 0 && d > co[v]) {
            continue;
        }
        for (const auto& [u, w] : radj[v]) {
            const std::int64_t nd = satAdd(d, w);
            if (co[u] < 0 || nd < co[u]) {
                co[u] = nd;
                heap.emplace(nd, u);
            }
        }
    }

    TestabilityReport report;
    report.ranked.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        NodeScore score;
        score.signal = nodes[i].signal->name();
        score.cc = cc[i];
        score.co = co[i];
        score.level = nodes[i].level;
        score.fanout = nodes[i].fanout;
        score.observable = nodes[i].observable;
        report.ranked.push_back(std::move(score));
    }
    std::sort(report.ranked.begin(), report.ranked.end(),
              [](const NodeScore& a, const NodeScore& b) {
                  if (a.score() != b.score()) {
                      return a.score() < b.score();
                  }
                  return a.signal < b.signal;
              });
    return report;
}

std::string TestabilityReport::table(std::size_t topN) const
{
    TextTable t;
    t.setHeader({"signal", "level", "fanout", "CC", "CO", "score"});
    std::size_t shown = 0;
    for (const NodeScore& s : ranked) {
        if (topN != 0 && shown++ >= topN) {
            break;
        }
        t.addRow({s.signal,
                  s.level < 0 ? "cyclic" : std::to_string(s.level),
                  std::to_string(s.fanout),
                  s.cc >= kInfCost ? "inf" : std::to_string(s.cc),
                  s.co < 0 ? "n/a" : std::to_string(s.co),
                  s.co < 0 || s.cc >= kInfCost ? "n/a" : std::to_string(s.score())});
    }
    return t.str();
}

std::string TestabilityReport::json() const
{
    std::string out = "[";
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const NodeScore& s = ranked[i];
        out += i == 0 ? "\n" : ",\n";
        out += "  {\"signal\": \"" + util::jsonEscape(s.signal) + "\"";
        out += ", \"level\": " + std::to_string(s.level);
        out += ", \"fanout\": " + std::to_string(s.fanout);
        out += ", \"cc\": ";
        out += s.cc >= kInfCost ? "null" : std::to_string(s.cc);
        out += ", \"co\": ";
        out += s.co < 0 ? "null" : std::to_string(s.co);
        out += ", \"observable\": ";
        out += s.observable ? "true" : "false";
        out += "}";
    }
    out += "\n]\n";
    return out;
}

} // namespace gfi::analyze

// tractable_oneshot: one-shot `check global` and `construct` requests
// on the polynomial side of Theorem 3.1.  The instance mixes a two-keys
// relation T(a, b) (keys {1} and {2}) and a one-FD relation O(k, v, i)
// (FD 1 -> 2), with Zipf-skewed values.
//
// Oracles.  O's blocks are complete multipartite (one part per v), so a
// block repair is one part, and part P is globally optimal iff no other
// part Q has, for every fact of P, a fact preferring over it — the
// benchmark checks that exactly.  T's part of J is the benchmark's own
// greedy completion by rank, which is completion-, hence globally,
// optimal.  So J_opt must be accepted; J_bad puts a dominated part into
// one O block and must be refuted by a witness that is a consistent
// global improvement.  Constructed repairs must be consistent, maximal
// and optimal on every O block, and prefrep's own global and Pareto
// checks must accept them.

#include <algorithm>
#include <cmath>
#include <set>
#include <unordered_set>

#include "io/text_format.h"
#include "model/context.h"
#include "oneshot.h"
#include "repair/block_solver.h"
#include "repair/checker.h"

namespace perfbench {

namespace {

// T holds 4000 facts and O 1000.  At 16000 and 2000 a request took
// about a second and its timings spread past their bounds from run to
// run; the traced run's scaling probe still measures 4x this size.  O
// stays the smaller: the one-FD check grows about quadratically in it
// (one scan of the relation per block; see README.md).
constexpr size_t kTwoKeysFacts = 4000;
constexpr size_t kOneFdFacts = 1000;
constexpr const char* kTag = "tractable_oneshot";
// One solver thread, like the other workloads: on the reference VM a
// request that keeps all 4 vCPUs busy provokes hypervisor steal (see
// hard.cc).  The traced run's repair.poly_parallel_speedup measures the
// hardware default.
constexpr size_t kThreads = 1;

struct TractableInput {
  Model model;
  std::string text_opt;  // J = J_opt
  std::string text_bad;  // J = J_bad
  ConflictTruth truth;
  std::vector<char> j_opt, j_bad;
  // Per O block (model block index): which parts (by v) are optimal.
  std::map<int, std::set<std::string>> optimal_parts;
};

// n values over 0..domain-1, value i appearing as often as a Zipf law
// with exponent s expects (largest remainders round), in random order.
std::vector<size_t> ZipfMultiset(size_t domain, double s, size_t n,
                                 std::mt19937_64& rng) {
  std::vector<double> weight(domain);
  double total = 0;
  for (size_t i = 0; i < domain; ++i) {
    weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), s);
    total += weight[i];
  }
  std::vector<size_t> count(domain);
  std::vector<std::pair<double, size_t>> remainder;
  size_t placed = 0;
  for (size_t i = 0; i < domain; ++i) {
    const double exact = static_cast<double>(n) * weight[i] / total;
    count[i] = static_cast<size_t>(exact);
    placed += count[i];
    remainder.emplace_back(exact - static_cast<double>(count[i]), i);
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (size_t k = 0; placed < n; ++k, ++placed) {
    ++count[remainder[k].second];
  }
  std::vector<size_t> out;
  for (size_t i = 0; i < domain; ++i) {
    out.insert(out.end(), count[i], i);
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// The instance's shape is fixed; `salt` (from the run's seed) prefixes
// every label and value.  Shapes drawn per seed made a request's cost
// move by about 10% from seed to seed, more than the changes the
// benchmark must resolve.
TractableInput MakeInput(size_t n_t, size_t n_o, const std::string& salt) {
  TractableInput in;
  Model& m = in.model;
  std::mt19937_64 rng(0x9E3779B97F4A7C15ULL + n_t + n_o);
  m.rels.push_back(ModelRelation{"T", 2, {{{0}, {1}}, {{1}, {0}}}});
  m.rels.push_back(ModelRelation{"O", 3, {{{0}, {1}}}});

  // T: n_t distinct (a, b) pairs.  Each side takes every value as often
  // as a Zipf law expects; the generator pairs them up at random.
  {
    const size_t domain = std::max<size_t>(16, n_t / 2);
    std::vector<size_t> a = ZipfMultiset(domain, 0.8, n_t, rng);
    std::vector<size_t> b = ZipfMultiset(domain, 0.8, n_t, rng);
    std::unordered_set<uint64_t> seen;
    for (size_t i = 0; i < n_t; ++i) {
      // Re-pair a duplicate with a later b value; drop it if none fits.
      for (size_t tries = 0; tries < 64 && seen.count(a[i] * domain + b[i]);
           ++tries) {
        std::swap(b[i], b[i + rng() % (n_t - i)]);
      }
      if (seen.insert(a[i] * domain + b[i]).second) {
        m.AddFact(salt + "t" + std::to_string(m.facts.size()), 0,
                  {salt + "a" + std::to_string(a[i]),
                   salt + "b" + std::to_string(b[i])});
      }
    }
  }
  const size_t t_end = m.facts.size();
  // O: Zipf keys (again as often as expected), four values, a unique
  // third column.
  {
    const std::vector<size_t> keys =
        ZipfMultiset(std::max<size_t>(16, n_o / 8), 0.5, n_o, rng);
    for (size_t i = 0; i < n_o; ++i) {
      m.AddFact(salt + "o" + std::to_string(i), 1,
                {salt + "k" + std::to_string(keys[i]),
                 salt + "v" + std::to_string(rng() % 4),
                 salt + "i" + std::to_string(i)});
    }
  }
  std::vector<uint64_t> rank(m.facts.size());
  for (size_t f = 0; f < rank.size(); ++f) {
    rank[f] = rng();
  }
  std::set<std::pair<int, int>> edges;
  // T priority: ~m/2 random rank-oriented pairs inside every a- or
  // b-group of m facts (any two facts of a group conflict).
  for (int side = 0; side < 2; ++side) {
    std::map<std::string, std::vector<int>> groups;
    for (size_t f = 0; f < t_end; ++f) {
      groups[m.facts[f].vals[static_cast<size_t>(side)]].push_back(
          static_cast<int>(f));
    }
    for (const auto& [key, members] : groups) {
      for (size_t r = 0; r + 1 < members.size(); r += 2) {
        int x = members[rng() % members.size()];
        int y = members[rng() % members.size()];
        if (x == y) {
          continue;
        }
        if (rank[static_cast<size_t>(x)] < rank[static_cast<size_t>(y)]) {
          std::swap(x, y);
        }
        edges.emplace(x, y);
      }
    }
  }
  // O priority: parts of a block are ranked; a higher part either
  // dominates a lower one (an edge onto every fact of it) or touches a
  // fifth of its facts.
  std::map<std::string, std::map<std::string, std::vector<int>>> o_blocks;
  for (size_t f = t_end; f < m.facts.size(); ++f) {
    o_blocks[m.facts[f].vals[0]][m.facts[f].vals[1]].push_back(
        static_cast<int>(f));
  }
  for (auto& [key, parts] : o_blocks) {
    std::vector<const std::vector<int>*> order;
    for (auto& [v, members] : parts) {
      order.push_back(&members);
    }
    std::shuffle(order.begin(), order.end(), rng);  // order[0] ranks top
    for (size_t hi = 0; hi < order.size(); ++hi) {
      for (size_t lo = hi + 1; lo < order.size(); ++lo) {
        const bool dominate = rng() % 2 == 0;
        for (int p : *order[lo]) {
          if (dominate || rng() % 5 == 0) {
            edges.emplace((*order[hi])[rng() % order[hi]->size()], p);
          }
        }
      }
    }
  }
  m.prefer.assign(edges.begin(), edges.end());
  std::shuffle(m.prefer.begin(), m.prefer.end(), rng);
  in.truth = ComputeConflicts(m);

  // J on T: greedy completion in descending rank.
  std::vector<int> by_rank;
  for (size_t f = 0; f < t_end; ++f) {
    by_rank.push_back(static_cast<int>(f));
  }
  std::sort(by_rank.begin(), by_rank.end(), [&](int x, int y) {
    return rank[static_cast<size_t>(x)] > rank[static_cast<size_t>(y)];
  });
  in.j_opt.assign(m.facts.size(), 0);
  std::unordered_set<std::string> taken_a, taken_b;
  for (int f : by_rank) {
    const ModelFact& fact = m.facts[static_cast<size_t>(f)];
    if (!taken_a.count(fact.vals[0]) && !taken_b.count(fact.vals[1])) {
      taken_a.insert(fact.vals[0]);
      taken_b.insert(fact.vals[1]);
      in.j_opt[static_cast<size_t>(f)] = 1;
    }
  }
  // J on O: an optimal part per block.  J_bad swaps in a dominated part
  // in the O block that comes last in fact order (prefrep checks blocks
  // in that order), so refuting J_bad scans nearly every block.
  std::vector<int> bad_part;
  int bad_first = -1;
  for (const auto& [key, parts] : o_blocks) {
    if (parts.size() == 1) {
      for (int f : parts.begin()->second) {
        in.j_opt[static_cast<size_t>(f)] = 1;
      }
      continue;
    }
    const int block = in.truth.block_of[static_cast<size_t>(
        parts.begin()->second.front())];
    // Part P is dominated by Q iff every fact of P has a fact of Q
    // preferred over it: intersect, over P's facts, the parts above.
    std::set<std::string>& optimal = in.optimal_parts[block];
    const std::vector<int>* dominated = nullptr;
    for (const auto& [v, members] : parts) {
      std::set<std::string> common;
      bool first = true;
      for (int p : members) {
        std::set<std::string> over;
        for (int g : in.truth.preferred_over[static_cast<size_t>(p)]) {
          over.insert(m.facts[static_cast<size_t>(g)].vals[1]);
        }
        if (first) {
          common = std::move(over);
          first = false;
        } else {
          std::set<std::string> keep;
          std::set_intersection(common.begin(), common.end(), over.begin(),
                                over.end(), std::inserter(keep, keep.end()));
          common = std::move(keep);
        }
      }
      if (common.empty()) {
        optimal.insert(v);
      } else {
        dominated = &members;
      }
    }
    for (int f : parts.at(*optimal.begin())) {
      in.j_opt[static_cast<size_t>(f)] = 1;
    }
    const int first = in.truth.blocks[static_cast<size_t>(block)].front();
    if (dominated != nullptr && first > bad_first) {
      bad_first = first;
      bad_part = *dominated;
    }
  }
  in.j_bad = in.j_opt;
  // Swap the chosen block in J_bad.
  if (!bad_part.empty()) {
    const int block = in.truth.block_of[static_cast<size_t>(bad_part.front())];
    for (int f : in.truth.blocks[static_cast<size_t>(block)]) {
      in.j_bad[static_cast<size_t>(f)] = 0;
    }
    for (int f : bad_part) {
      in.j_bad[static_cast<size_t>(f)] = 1;
    }
  }
  in.text_opt = m.RenderWithJ(in.j_opt);
  in.text_bad = m.RenderWithJ(in.j_bad);
  return in;
}

// prefrep's own global and Pareto checks on `repair` as J.
std::string ProgramAccepts(const TractableInput& in,
                           const std::vector<char>& repair) {
  using namespace prefrep;
  Result<PreferredRepairProblem> p =
      ParseProblemText(in.model.RenderWithJ(repair));
  if (!p.ok()) {
    return p.status().ToString();
  }
  RepairChecker checker(*p->instance, *p->priority);
  Result<CheckOutcome> global = checker.CheckGloballyOptimal(p->j);
  if (!global.ok() || global->result.verdict != CheckResult::Verdict::kYes) {
    return "check global rejects the constructed repair";
  }
  if (checker.CheckParetoOptimal(p->j).verdict != CheckResult::Verdict::kYes) {
    return "check pareto rejects the constructed repair";
  }
  return "";
}

class TractableOneshot : public Workload {
 public:
  const char* name() const override { return kTag; }

  void Setup(uint64_t seed) override {
    salt_ = "r" + std::to_string(seed % 9973) + "_";
    in_ = MakeInput(kTwoKeysFacts, kOneFdFacts, salt_);
    verified_.clear();
  }

  void RunRound(Tracer& tracer, Tally& tally, RoundTimes& times) override {
    OneshotOptions options;  // no cache
    options.threads = kThreads;
    for (int kind = 0; kind < 3; ++kind) {
      const std::string& text = kind == 1 ? in_.text_bad : in_.text_opt;
      const char* line = kind == 2 ? "construct" : "check global";
      ++tally.attempted;
      OneshotAnswer a = RunOneshot(tracer, text, line, in_.model, options);
      times.Add(a.ms);
      (kind == 2 ? times.construct_ms : times.check_ms).push_back(a.ms);
      Verify(kind, a, tally);
      last_[kind] = std::move(a);
    }
  }

  void Probe(Tracer& tracer, Tally& tally, Metrics& out) override {
    tracer.set_tag(kTag);
    RoundTimes times;
    RunRound(tracer, tally, times);
    auto median = [&](const char* span) {
      return Median(tracer.DurationsMs(span, kTag));
    };
    out["io.parse_ms"] = median("io.parse");
    out["io.problem_mb"] =
        static_cast<double>(in_.text_opt.size()) / (1024.0 * 1024.0);
    out["conflicts.graph_ms"] = median("conflicts.graph");
    out["conflicts.blocks_ms"] = median("conflicts.blocks");
    out["conflicts.edges"] = static_cast<double>(last_[0].edges);
    out["conflicts.blocks"] = static_cast<double>(last_[0].blocks);
    out["conflicts.max_block_facts"] =
        static_cast<double>(last_[0].max_block_facts);
    out["classify.schema_us"] = median("classify.schema") * 1000.0;
    out["repair.check_ms"] = median("repair.check");
    out["repair.construct_ms"] = median("repair.construct");
    out["repair.blocks_poly"] =
        static_cast<double>(BlocksOnRoute(last_[0].route, false));

    // The primed check at 1 thread over the hardware default.
    {
      using namespace prefrep;
      Result<PreferredRepairProblem> p = ParseProblemText(in_.text_opt);
      if (!p.ok()) {
        tally.Fail("probe input does not parse", false);
        return;
      }
      ProblemContext ctx(*p->instance, *p->priority);
      ctx.Prime();
      auto time_at = [&](size_t threads) {
        ctx.set_parallelism(threads);
        std::vector<double> ms;
        for (int i = 0; i < 3; ++i) {
          const int64_t start = NowNs();
          const CheckResult r = CheckGlobalOptimalByBlocks(
              ctx, p->j, PriorityMode::kConflictOnly);
          ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
          if (r.verdict != CheckResult::Verdict::kYes) {
            tally.Fail("primed check did not accept J_opt", true);
          }
        }
        return Median(ms);
      };
      const double serial = time_at(1);
      out["repair.poly_parallel_speedup"] = serial / time_at(0);
    }

    // Scaling: the same generator at 1x, 2x and 4x both relations'
    // sizes (the fit is of log time on log size).
    std::vector<double> xs, graph, check, construct;
    Tracer scale(true);
    const char* tag = "tractable_scaling";
    scale.set_tag(tag);
    for (size_t mult : {1, 2, 4}) {
      const size_t n = (kTwoKeysFacts + kOneFdFacts) * mult;
      TractableInput in =
          MakeInput(kTwoKeysFacts * mult, kOneFdFacts * mult, salt_);
      OneshotOptions options;  // the hardware default, as prefrepctl
      OneshotAnswer c = RunOneshot(scale, in.text_opt, "check global",
                                   in.model, options);
      OneshotAnswer k =
          RunOneshot(scale, in.text_opt, "construct", in.model, options);
      if (!c.error.empty() || c.verdict != 1 || !k.error.empty()) {
        tally.Fail("scaling request failed at n=" + std::to_string(n), false);
      }
      xs.push_back(std::log(static_cast<double>(n)));
      graph.push_back(std::log(scale.DurationsMs("conflicts.graph", tag).back()));
      check.push_back(std::log(scale.DurationsMs("repair.check", tag).back()));
      construct.push_back(
          std::log(scale.DurationsMs("repair.construct", tag).back()));
    }
    auto slope = [&](const std::vector<double>& ys) {
      const double mx = (xs[0] + xs[1] + xs[2]) / 3;
      const double my = (ys[0] + ys[1] + ys[2]) / 3;
      double num = 0, den = 0;
      for (size_t i = 0; i < 3; ++i) {
        num += (xs[i] - mx) * (ys[i] - my);
        den += (xs[i] - mx) * (xs[i] - mx);
      }
      return num / den;
    };
    out["conflicts.graph_exponent"] = slope(graph);
    out["repair.check_exponent"] = slope(check);
    out["repair.construct_exponent"] = slope(construct);
  }

  int SelfTest(std::vector<std::string>& report) override {
    Tracer off(false);
    Tally tally;
    RoundTimes times;
    RunRound(off, tally, times);
    int bad = 0;
    OneshotAnswer a = last_[0];
    bad += SelfTestCase(report, kTag, "check J_opt as answered", true,
                        VerifyAnswer(0, a));
    a.verdict = 0;
    bad += SelfTestCase(report, kTag, "check J_opt, verdict flipped", false,
                        VerifyAnswer(0, a));
    a = last_[1];
    bad += SelfTestCase(report, kTag, "check J_bad as answered", true,
                        VerifyAnswer(1, a));
    a.verdict = 1;
    bad += SelfTestCase(report, kTag, "check J_bad, verdict flipped", false,
                        VerifyAnswer(1, a));
    a = last_[1];
    a.witness = in_.j_bad;
    bad += SelfTestCase(report, kTag, "check J_bad, witness replaced by J",
                        false, VerifyAnswer(1, a));
    a = last_[2];
    bad += SelfTestCase(report, kTag, "construct as answered", true,
                        VerifyAnswer(2, a));
    for (size_t f = 0; f < a.repair.size(); ++f) {
      if (a.repair[f]) {
        a.repair[f] = 0;
        break;
      }
    }
    bad += SelfTestCase(report, kTag, "construct, one fact dropped", false,
                        VerifyAnswer(2, a));
    return bad;
  }

 private:
  void Verify(int kind, const OneshotAnswer& a, Tally& tally) {
    if (!a.error.empty()) {
      tally.Fail(a.error, false);
      return;
    }
    if (kind < 2 && a.verdict == 2) {
      tally.Fail("check answered unknown", false);
      return;
    }
    if (static_cast<uint64_t>(a.edges) != in_.truth.pairs) {
      tally.Fail("conflict graph has " + std::to_string(a.edges) +
                     " edges, grouping gives " + std::to_string(in_.truth.pairs),
                 true);
      return;
    }
    // Identical answers are verified once per run.
    std::string key(1, static_cast<char>('0' + kind));
    key += std::to_string(a.verdict);
    key.append(a.witness.begin(), a.witness.end());
    key.append(a.repair.begin(), a.repair.end());
    if (verified_.count(key)) {
      return;
    }
    std::string why = VerifyAnswer(kind, a);
    if (!why.empty()) {
      tally.Fail(std::string(kind == 2 ? "construct: " : "check: ") + why, true);
      return;
    }
    verified_.insert(std::move(key));
  }

  std::string VerifyAnswer(int kind, const OneshotAnswer& a) const {
    std::string why;
    if (kind == 0) {
      return a.verdict == 1 ? "" : "J_opt refuted, but it is optimal";
    }
    if (kind == 1) {
      if (a.verdict != 0) {
        return "J_bad accepted, but a part of it is dominated";
      }
      if (a.witness.empty()) {
        return "no witness for a refuted J";
      }
      if (!IsConsistent(in_.model, a.witness, &why) ||
          !IsGlobalImprovement(in_.truth, in_.j_bad, a.witness, &why)) {
        return "bad witness: " + why;
      }
      return "";
    }
    if (!IsConsistent(in_.model, a.repair, &why) ||
        !IsMaximal(in_.model, a.repair, &why)) {
      return why;
    }
    for (const auto& [block, optimal] : in_.optimal_parts) {
      for (int f : in_.truth.blocks[static_cast<size_t>(block)]) {
        if (a.repair[static_cast<size_t>(f)] &&
            !optimal.count(in_.model.facts[static_cast<size_t>(f)].vals[1])) {
          return "keeps a dominated part of an O block";
        }
      }
    }
    return ProgramAccepts(in_, a.repair);
  }

  std::string salt_;
  TractableInput in_;
  std::set<std::string> verified_;
  OneshotAnswer last_[3];
};

}  // namespace

std::unique_ptr<Workload> MakeTractableOneshot() {
  return std::make_unique<TractableOneshot>();
}

}  // namespace perfbench

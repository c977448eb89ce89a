// hard_oneshot: one-shot exact requests on hard schema S1 (Theorem 3.1),
// with a fresh block-solve cache per request.
//
// The sharded instance joins MakeHardShardedWorkload's identical copies
// (half the shards) with its pairwise-distinct variant (the other
// half); every shard is one clique-with-spine conflict block.  `check`,
// `count` and `construct` run on it; `cqa` runs on a near-miss
// MakeCategoricalWorkload instance, whose last block has no priority
// edges, so the categoricity pre-pass fails and CQA enumerates.
//
// Oracles.  At set-up the benchmark enumerates every repair of every
// distinct block and keeps the globally optimal ones (BlockOracle).
// Verdicts, counts (product over blocks), constructed repairs and CQA
// answers (a tuple is certain iff some block yields it in every one of
// its optimal repairs) all follow from those sets.

#include <algorithm>
#include <set>

#include "classify/categoricity.h"
#include "gen/categorical_workload.h"
#include "gen/hard_workloads.h"
#include "io/text_format.h"
#include "model/context.h"
#include "oneshot.h"
#include "repair/block_solver.h"
#include "repair/checker.h"

namespace perfbench {

namespace {

constexpr size_t kShards = 16;      // half identical, half distinct
// Cliques per shard (clique size 3).  A block of c cliques has
// 2^(c-1)(c+2) repairs; checking walks them, counting checks each one,
// so count runs on smaller blocks than check.
constexpr size_t kCheckCliques = 8;
constexpr size_t kCountCliques = 6;
constexpr size_t kCqaBlocks = 6;
constexpr size_t kCqaCliques = 6;
// Requests run on one solver thread.  On the reference VM a request that
// fans out to all 4 vCPUs provokes hypervisor steal: the same 4-thread
// check measured 5.2 to 12 ms from run to run, tracking the steal
// counter.  The traced run measures the 4-thread behaviour
// (repair.parallel_speedup, and cache traffic with concurrent misses).
constexpr size_t kThreads = 1;
constexpr size_t kProbeThreads = 4;
constexpr const char* kTag = "hard_oneshot";

// Appends `from` to `into` with every label and constant prefixed, so
// parts generated apart cannot share a value.
void AppendRenamed(const Model& from, const std::string& prefix, Model* into) {
  if (into->rels.empty()) {
    into->rels = from.rels;
  }
  const int base = static_cast<int>(into->facts.size());
  for (const ModelFact& f : from.facts) {
    std::vector<std::string> vals;
    for (const std::string& v : f.vals) {
      vals.push_back(prefix + v);
    }
    into->AddFact(prefix + f.label, f.rel, std::move(vals));
  }
  for (const auto& [hi, lo] : from.prefer) {
    into->prefer.emplace_back(base + hi, base + lo);
  }
  for (int f : from.j) {
    into->j.push_back(base + f);
  }
}

Model FromProgram(const prefrep::PreferredRepairProblem& p) {
  Model m;
  const std::string error = m.Parse(prefrep::ProblemToText(p));
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: generated problem unreadable: %s\n",
                 error.c_str());
    std::abort();
  }
  return m;
}

std::vector<char> AsSet(const Model& m, const std::vector<int>& facts) {
  std::vector<char> in(m.facts.size(), 0);
  for (int f : facts) {
    in[static_cast<size_t>(f)] = 1;
  }
  return in;
}

class HardOneshot : public Workload {
  // One sharded S1 instance and what brute force says about it.
  struct Sharded {
    Model model;
    ConflictTruth truth;
    std::vector<char> j_opt, j_bad;
    std::string text_opt, text_bad;
    bool expect_opt = true, expect_bad = false;
    uint64_t expected_count = 0;
  };

 public:
  const char* name() const override { return kTag; }

  void Setup(uint64_t seed) override {
    const std::string salt = "x" + std::to_string(seed % 997) + "_";
    oracle_ = BlockOracle();
    verified_.clear();
    setup_errors_.clear();

    BuildSharded(kCheckCliques, salt, &big_);
    BuildSharded(kCountCliques, salt, &small_);

    // Near-miss categorical instance and its expected CQA answers.
    prefrep::CategoricalWorkloadOptions copts;
    copts.blocks = kCqaBlocks;
    copts.cliques = kCqaCliques;
    copts.clique_size = 3;
    copts.near_miss = true;
    cqa_model_ = Model();
    AppendRenamed(FromProgram(prefrep::MakeCategoricalWorkload(copts)),
                  "c" + salt, &cqa_model_);
    cqa_truth_ = ComputeConflicts(cqa_model_);
    cqa_text_ = cqa_model_.Render();
    const std::string rel = cqa_model_.rels[0].name;
    cqa_line_ = "cqa global Q(x, z) :- " + rel + "(x, y, z)";
    expected_answers_.clear();
    auto tuple = [&](int f) {
      const ModelFact& fact = cqa_model_.facts[static_cast<size_t>(f)];
      return std::vector<std::string>{fact.vals[0], fact.vals[2]};
    };
    for (size_t f = 0; f < cqa_model_.facts.size(); ++f) {
      if (cqa_truth_.block_of[f] < 0) {
        expected_answers_.insert(tuple(static_cast<int>(f)));
      }
    }
    for (const std::vector<int>& block : cqa_truth_.blocks) {
      const BlockTruth& t = oracle_.Solve(cqa_model_, cqa_truth_, block);
      std::set<std::vector<std::string>> common;
      for (size_t r = 0; r < t.optimal.size(); ++r) {
        std::set<std::vector<std::string>> here;
        for (size_t i = 0; i < block.size(); ++i) {
          if ((t.optimal[r] >> i) & 1) {
            here.insert(tuple(block[i]));
          }
        }
        if (r == 0) {
          common = std::move(here);
        } else {
          std::set<std::vector<std::string>> keep;
          std::set_intersection(common.begin(), common.end(), here.begin(),
                                here.end(), std::inserter(keep, keep.end()));
          common = std::move(keep);
        }
      }
      expected_answers_.insert(common.begin(), common.end());
    }
  }

  void RunRound(Tracer& tracer, Tally& tally, RoundTimes& times) override {
    // A set-up oracle that contradicts itself makes the run incorrect
    // without failing an operation.
    for (const std::string& e : setup_errors_) {
      ++tally.wrong;
      if (tally.first_errors.size() < 5) {
        tally.first_errors.push_back("set-up oracle: " + e);
      }
    }
    OneshotOptions options;
    options.threads = kThreads;
    options.cache = true;
    for (int kind = 0; kind < 5; ++kind) {
      ++tally.attempted;
      const std::string& text = kind == 4   ? cqa_text_
                                : kind == 2 ? small_.text_opt
                                : kind == 1 ? big_.text_bad
                                            : big_.text_opt;
      const Model& model = kind == 4   ? cqa_model_
                           : kind == 2 ? small_.model
                                       : big_.model;
      static const char* const kLines[] = {"check global", "check global",
                                           "count global", "construct", ""};
      const std::string line = kind == 4 ? cqa_line_ : kLines[kind];
      OneshotAnswer a = RunOneshot(tracer, text, line, model, options);
      times.Add(a.ms);
      if (kind <= 1) {
        times.check_ms.push_back(a.ms);
      } else if (kind == 3) {
        times.construct_ms.push_back(a.ms);
      }
      Verify(kind, a, tally);
      last_[kind] = std::move(a);
    }
  }

  void Probe(Tracer& tracer, Tally& tally, Metrics& out) override {
    using namespace prefrep;
    tracer.set_tag(kTag);
    const int kRounds = 2;
    for (int r = 0; r < kRounds; ++r) {
      RoundTimes times;
      RunRound(tracer, tally, times);
    }
    // Cache traffic of the sharded requests at 4 threads, where workers
    // can miss on one fingerprint at the same time.
    prefrep::BlockCacheStats cache;
    OneshotOptions parallel;
    parallel.threads = kProbeThreads;
    parallel.cache = true;
    Tracer off(false);
    for (int r = 0; r < kRounds; ++r) {
      for (int kind = 0; kind < 4; ++kind) {
        static const char* const kLines[] = {"check global", "check global",
                                             "count global", "construct"};
        const Sharded& sh = kind == 2 ? small_ : big_;
        OneshotAnswer a = RunOneshot(off, kind == 1 ? sh.text_bad : sh.text_opt,
                                     kLines[kind], sh.model, parallel);
        Verify(kind, a, tally);
        cache.hits += a.cache.hits;
        cache.misses += a.cache.misses;
        cache.stores += a.cache.stores;
      }
    }
    auto median = [&](const char* span) {
      return Median(tracer.DurationsMs(span, kTag));
    };
    out["repair.hard_check_ms"] = median("repair.check");
    out["repair.count_ms"] = median("repair.count");
    out["query.cqa_ms"] = median("query.cqa");
    out["query.answers"] = static_cast<double>(last_[4].answers.size());
    out["repair.blocks_exhaustive"] =
        static_cast<double>(BlocksOnRoute(last_[0].route, true));
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    out["cache.lookups"] = lookups / kRounds;
    out["cache.hits"] = static_cast<double>(cache.hits) / kRounds;
    out["cache.misses"] = static_cast<double>(cache.misses) / kRounds;
    out["cache.hit_ratio"] =
        lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0;
    out["cache.redundant_misses"] =
        static_cast<double>(cache.misses - std::min(cache.misses, cache.stores)) /
        kRounds;

    // Categoricity pre-pass on the near-miss instance, primed.
    Result<PreferredRepairProblem> cqa = ParseProblemText(cqa_text_);
    Result<PreferredRepairProblem> sharded = ParseProblemText(big_.text_opt);
    if (!cqa.ok() || !sharded.ok()) {
      tally.Fail("probe inputs do not parse", false);
      return;
    }
    {
      ProblemContext ctx(*cqa->instance, *cqa->priority);
      ctx.set_parallelism(kThreads);  // as the requests
      ctx.Prime();
      std::vector<double> ms;
      for (int r = 0; r < 5; ++r) {
        const int64_t start = NowNs();
        {
          ScopedSpan span(tracer, "classify.categoricity");
          const CategoricityResult verdict =
              DecideCategoricity(ctx, RepairSemantics::kGlobal);
          if (verdict.verdict != Categoricity::kAmbiguous) {
            tally.Fail("near-miss instance not found ambiguous", true);
          }
        }
        ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
      }
      out["classify.categoricity_ms"] = Median(ms);
      size_t categorical = 0;
      for (size_t b = 0; b < ctx.blocks().num_blocks(); ++b) {
        categorical += DecideBlockCategoricity(ctx, ctx.blocks().block(b),
                                               RepairSemantics::kGlobal)
                           .unique == Trilean::kTrue;
      }
      out["classify.categorical_blocks"] = static_cast<double>(categorical);
    }
    // Governor nodes under an ample armed budget (deterministic), and
    // the 1-thread over 4-thread time of the same primed check.
    {
      ProblemContext ctx(*sharded->instance, *sharded->priority);
      ctx.Prime();
      ResourceBudget budget;
      budget.max_nodes = uint64_t{1} << 50;
      ResourceGovernor governor(budget);
      ctx.set_governor(&governor);
      ctx.set_parallelism(1);
      const CheckResult r = CheckGlobalOptimalByBlocks(
          ctx, sharded->j, PriorityMode::kConflictOnly);
      if (r.verdict != CheckResult::Verdict::kYes) {
        tally.Fail("governed check did not accept J_opt", true);
      }
      out["repair.nodes"] = static_cast<double>(governor.nodes_spent());
      ctx.set_governor(nullptr);
      auto time_at = [&](size_t threads) {
        ctx.set_parallelism(threads);
        std::vector<double> ms;
        for (int i = 0; i < 5; ++i) {
          const int64_t start = NowNs();
          const CheckResult c = CheckGlobalOptimalByBlocks(
              ctx, sharded->j, PriorityMode::kConflictOnly);
          ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
          if (c.verdict != CheckResult::Verdict::kYes) {
            tally.Fail("primed check did not accept J_opt", true);
          }
        }
        return Median(ms);
      };
      const double serial = time_at(1);
      out["repair.parallel_speedup"] = serial / time_at(kProbeThreads);
    }
  }

 private:
  // MakeHardShardedWorkload's identical copies (the first half of the
  // shards) joined with its pairwise-distinct variant (the second half).
  void BuildSharded(size_t cliques, const std::string& salt, Sharded* out) {
    Sharded& sh = *out;
    sh.model = Model();
    AppendRenamed(FromProgram(prefrep::MakeHardShardedWorkload(
                      kShards / 2, cliques, 3, /*distinct_blocks=*/false)),
                  "a" + salt, &sh.model);
    const size_t identical_end = sh.model.facts.size();
    AppendRenamed(FromProgram(prefrep::MakeHardShardedWorkload(
                      kShards / 2, cliques, 3, /*distinct_blocks=*/true)),
                  "b" + salt, &sh.model);
    sh.truth = ComputeConflicts(sh.model);
    sh.j_opt = AsSet(sh.model, sh.model.j);
    // J_bad: in the last identical shard's last clique, keep the
    // clique's dispreferred f2 instead of its preferred f1.  The seed
    // only renames values: the S1 shapes are fixed by the generators.
    const std::string stem = "a" + salt + "s" + std::to_string(kShards / 2 - 1) +
                             ":q" + std::to_string(cliques - 1) + ":f";
    sh.j_bad = sh.j_opt;
    sh.j_bad[static_cast<size_t>(sh.model.Find(stem + "1"))] = 0;
    sh.j_bad[static_cast<size_t>(sh.model.Find(stem + "2"))] = 1;
    sh.text_opt = sh.model.RenderWithJ(sh.j_opt);
    sh.text_bad = sh.model.RenderWithJ(sh.j_bad);
    sh.expected_count = 1;
    for (const std::vector<int>& block : sh.truth.blocks) {
      const BlockTruth& t = oracle_.Solve(sh.model, sh.truth, block);
      sh.expected_count *= t.optimal.size();
      if (static_cast<size_t>(block.front()) < identical_end &&
          t.optimal.size() != 1) {
        setup_errors_.push_back("an identical-copy block has " +
                                std::to_string(t.optimal.size()) +
                                " optimal repairs, not 1");
      }
    }
    sh.expect_opt = IsOptimal(sh.model, sh.truth, sh.j_opt);
    sh.expect_bad = IsOptimal(sh.model, sh.truth, sh.j_bad);
    if (!sh.expect_opt || sh.expect_bad) {
      setup_errors_.push_back("brute force disagrees with the generator's J");
    }
  }

  // Whether `j` is globally optimal, block by block from brute force.
  bool IsOptimal(const Model& m, const ConflictTruth& t,
                 const std::vector<char>& j) {
    std::string why;
    if (!IsConsistent(m, j, &why)) {
      return false;
    }
    for (size_t f = 0; f < j.size(); ++f) {
      if (t.block_of[f] < 0 && !j[f]) {
        return false;
      }
    }
    for (const std::vector<int>& block : t.blocks) {
      const BlockTruth& bt = oracle_.Solve(m, t, block);
      if (!std::binary_search(bt.optimal.begin(), bt.optimal.end(),
                              LocalMask(block, j))) {
        return false;
      }
    }
    return true;
  }

  void Verify(int kind, const OneshotAnswer& a, Tally& tally) {
    static const char* const kNames[] = {"check J_opt", "check J_bad", "count",
                                         "construct", "cqa"};
    if (!a.error.empty()) {
      tally.Fail(std::string(kNames[kind]) + ": " + a.error, false);
      return;
    }
    if ((kind <= 1 && a.verdict == 2) || (kind == 2 && !a.count_exact)) {
      tally.Fail(std::string(kNames[kind]) + ": unknown or degraded", false);
      return;
    }
    std::string key(1, static_cast<char>('0' + kind));
    key += std::to_string(a.verdict) + "/" + std::to_string(a.count);
    key.append(a.witness.begin(), a.witness.end());
    key.append(a.repair.begin(), a.repair.end());
    for (const auto& t : a.answers) {
      for (const std::string& v : t) {
        key += v + ",";
      }
      key += ";";
    }
    if (verified_.count(key)) {
      return;
    }
    const std::string why = VerifyAnswer(kind, a);
    if (!why.empty()) {
      tally.Fail(std::string(kNames[kind]) + ": " + why, true);
      return;
    }
    verified_.insert(std::move(key));
  }

 public:
  // Exposed for the oracle self-test.
  std::string VerifyAnswer(int kind, const OneshotAnswer& a) {
    std::string why;
    switch (kind) {
      case 0:
      case 1: {
        const bool expected = kind == 0 ? big_.expect_opt : big_.expect_bad;
        if ((a.verdict == 1) != expected) {
          return "verdict disagrees with brute force";
        }
        if (a.verdict == 0) {
          const std::vector<char>& j = kind == 0 ? big_.j_opt : big_.j_bad;
          if (a.witness.empty()) {
            return "no witness for a refuted J";
          }
          if (!IsConsistent(big_.model, a.witness, &why) ||
              !IsGlobalImprovement(big_.truth, j, a.witness, &why)) {
            return "bad witness: " + why;
          }
        }
        return "";
      }
      case 2:
        return a.count == small_.expected_count
                   ? ""
                   : "count " + std::to_string(a.count) + ", brute force " +
                         std::to_string(small_.expected_count);
      case 3:
        if (!IsConsistent(big_.model, a.repair, &why) ||
            !IsMaximal(big_.model, a.repair, &why)) {
          return why;
        }
        return IsOptimal(big_.model, big_.truth, a.repair)
                   ? ""
                   : "constructed repair is not optimal on some block";
      default: {
        std::set<std::vector<std::string>> got(a.answers.begin(),
                                               a.answers.end());
        return got == expected_answers_ && got.size() == a.answers.size()
                   ? ""
                   : "answers differ from the per-block intersection";
      }
    }
  }

  int SelfTest(std::vector<std::string>& report) override {
    Tracer off(false);
    Tally tally;
    RoundTimes times;
    RunRound(off, tally, times);
    int bad = 0;
    static const char* const kNames[] = {"check J_opt", "check J_bad", "count",
                                         "construct", "cqa"};
    for (int kind = 0; kind < 5; ++kind) {
      bad += SelfTestCase(report, kTag,
                          std::string(kNames[kind]) + " as answered", true,
                          VerifyAnswer(kind, last_[kind]));
    }
    OneshotAnswer a = last_[0];
    a.verdict = 0;
    bad += SelfTestCase(report, kTag, "check J_opt, verdict flipped", false,
                        VerifyAnswer(0, a));
    a = last_[1];
    a.verdict = 1;
    bad += SelfTestCase(report, kTag, "check J_bad, verdict flipped", false,
                        VerifyAnswer(1, a));
    a = last_[2];
    ++a.count;
    bad += SelfTestCase(report, kTag, "count off by one", false,
                        VerifyAnswer(2, a));
    a = last_[3];
    // Swap J's choice in one identical-copy clique: still a repair, no
    // longer optimal.
    a.repair = big_.j_bad;
    bad += SelfTestCase(report, kTag, "construct replaced by a non-optimal repair",
                        false, VerifyAnswer(3, a));
    a = last_[4];
    if (!a.answers.empty()) {
      a.answers.pop_back();
    }
    bad += SelfTestCase(report, kTag, "cqa with one answer tuple dropped",
                        false, VerifyAnswer(4, a));
    return bad;
  }

 private:
  BlockOracle oracle_;
  Sharded big_;    // check and construct
  Sharded small_;  // count: it solves every repair of a block per repair
  Model cqa_model_;
  ConflictTruth cqa_truth_;
  std::string cqa_text_, cqa_line_;
  std::set<std::vector<std::string>> expected_answers_;
  std::set<std::string> verified_;
  std::vector<std::string> setup_errors_;
  OneshotAnswer last_[5];
};

}  // namespace

std::unique_ptr<Workload> MakeHardOneshot() {
  return std::make_unique<HardOneshot>();
}

}  // namespace perfbench

// Shared pieces of the end-to-end benchmark: the span recorder, the
// benchmark's own model of a problem (parsed from the text format by
// code written apart from src/io), the oracles built on that model, and
// the workload interface.
//
// Nothing here calls into prefrep to decide what a correct answer is:
// the oracles group raw tuples, test FDs and enumerate small blocks
// themselves.  The workloads call prefrep only to produce the answers
// under test.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- time

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v);
double Quantile(std::vector<double> v, double q);  // linear interpolation

// --------------------------------------------------------------- spans

// Spans around calls into prefrep's public functions.  Disabled, Begin
// is one branch; enabled, spans are kept in memory and summarized when
// the run ends.  All spans of a run are recorded on the main thread, so
// children nest strictly inside their parent.
class Tracer {
 public:
  struct Span {
    const char* name;  // "<layer>.<call>"; static strings only
    int64_t start_ns;
    int64_t end_ns;
    int parent;   // index into spans(), -1 for a root
    int request;  // request id shared by the spans of one request
    const char* tag;  // the workload the span belongs to
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int Begin(const char* name) {
    if (!enabled_) {
      return -1;
    }
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, NowNs(), 0, parent, request_, tag_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int id) {
    if (id < 0) {
      return;
    }
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    stack_.pop_back();
  }
  void NextRequest() { ++request_; }
  // Labels the spans recorded from now on (the workload they belong to).
  void set_tag(const char* tag) { tag_ = tag; }

  const std::vector<Span>& spans() const { return spans_; }

  // Durations (ms) of every span named `name` whose tag is `tag`.
  std::vector<double> DurationsMs(std::string_view name,
                                  std::string_view tag) const;
  // Self time (span minus the spans directly inside it), summed per
  // layer ("io", "repair", ...) over the spans with tag `tag`.
  std::map<std::string, double> LayerSelfMs(std::string_view tag) const;

 private:
  bool enabled_;
  int request_ = 0;
  const char* tag_ = "";
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------- the benchmark's model

struct ModelRelation {
  std::string name;
  int arity = 0;
  // (lhs, rhs) attribute positions, 0-based.
  std::vector<std::pair<std::vector<int>, std::vector<int>>> fds;
};

struct ModelFact {
  std::string label;
  int rel = 0;
  std::vector<std::string> vals;
};

// A problem as the benchmark sees it.  Parsed and rendered by the
// benchmark itself (model.cc); facts keep text order, which is also the
// order prefrep assigns fact ids in.
struct Model {
  std::vector<ModelRelation> rels;
  std::vector<ModelFact> facts;
  std::vector<std::pair<int, int>> prefer;  // (higher, lower)
  std::vector<int> j;
  std::unordered_map<std::string, int> by_label;

  // Returns an empty string on success, else what went wrong.
  std::string Parse(std::string_view text);
  std::string Render() const;
  // Renders with J replaced by the facts set in `j` (indexed by fact).
  std::string RenderWithJ(const std::vector<char>& j) const;
  int AddFact(std::string label, int rel, std::vector<std::string> vals);
  int Find(std::string_view label) const;
};

// Whether facts a and b violate one of their relation's FDs.
bool FactsConflict(const Model& m, int a, int b);

// Conflict structure computed from the raw tuples by grouping.
struct ConflictTruth {
  uint64_t pairs = 0;                // conflicting fact pairs
  std::vector<int> block_of;         // -1 for a conflict-free fact
  std::vector<std::vector<int>> blocks;  // facts per block, ascending
  std::vector<std::vector<int>> preferred_over;  // g in [f] iff g > f
};
ConflictTruth ComputeConflicts(const Model& m);

// Set predicates under the benchmark's own FD check.  `in` is indexed
// by fact.
bool IsConsistent(const Model& m, const std::vector<char>& in,
                  std::string* why);
bool IsMaximal(const Model& m, const std::vector<char>& in, std::string* why);
// Definition 2.4: w is a global improvement of j when w != j and every
// fact of j \ w has some fact of w \ j preferred over it.
bool IsGlobalImprovement(const ConflictTruth& t, const std::vector<char>& j,
                         const std::vector<char>& w, std::string* why);

// Brute-force truth of one block of at most 64 facts: every repair
// (maximal consistent subset) and the globally-optimal ones, as masks
// over the block's facts in ascending order.
struct BlockTruth {
  uint64_t repairs = 0;
  std::vector<uint64_t> optimal;  // sorted
};
class BlockOracle {
 public:
  // Memoized by the block's local conflict and priority structure, so
  // isomorphic blocks (identical copies) are enumerated once.
  const BlockTruth& Solve(const Model& m, const ConflictTruth& t,
                          const std::vector<int>& block);
  size_t distinct_blocks() const { return memo_.size(); }

 private:
  std::map<std::vector<uint64_t>, BlockTruth> memo_;
};
uint64_t LocalMask(const std::vector<int>& block, const std::vector<char>& in);

// ------------------------------------------------------------ workload

// Operations of one round and how each went.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  // failures where an oracle rejected the answer
  std::vector<std::string> first_errors;
  void Fail(const std::string& what, bool wrong_answer);
};

// One round's user-visible timings.
struct RoundTimes {
  std::vector<double> check_ms;
  std::vector<double> construct_ms;
  uint64_t ops = 0;
  double op_ms = 0;  // summed latency of the round's operations
  void Add(double ms) {
    ++ops;
    op_ms += ms;
  }
};

using Metrics = std::map<std::string, double>;

// A directory private to this run, inside the working directory's
// .bench_build/; removed when the run ends (main.cc).
std::string ScratchDir();

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  // Generates inputs from the seed and builds the oracles.
  virtual void Setup(uint64_t seed) = 0;
  // Runs every operation of one round once, checking each answer.
  virtual void RunRound(Tracer& tracer, Tally& tally, RoundTimes& times) = 0;
  // Traced run only: one traced round plus the workload's layer
  // probes, writing the per-layer metrics this workload is the source
  // of.
  virtual void Probe(Tracer& tracer, Tally& tally, Metrics& out) = 0;
  // Feeds the workload's oracles genuine answers (which they must
  // accept) and corrupted ones (which they must reject).  Appends one
  // line per case to `report`; returns the number of cases that went
  // the wrong way.
  virtual int SelfTest(std::vector<std::string>& report) = 0;
};

// Records one self-test case.
int SelfTestCase(std::vector<std::string>& report, const char* workload,
                 const std::string& what, bool should_accept,
                 const std::string& oracle_says);

std::unique_ptr<Workload> MakeTractableOneshot();
std::unique_ptr<Workload> MakeHardOneshot();
std::unique_ptr<Workload> MakeServeDurable();


}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

// One prefrepctl-style request: parse a problem text held in memory,
// parse the request line, build the artifacts, answer.  The latency is
// measured around all of it, tracing on or off; spans mark each call
// into a layer's public functions.

#ifndef PERFBENCH_ONESHOT_H_
#define PERFBENCH_ONESHOT_H_

#include <string>
#include <vector>

#include "cache/block_cache.h"
#include "common.h"

namespace perfbench {

struct OneshotOptions {
  size_t threads = 0;  // 0: the hardware default, as prefrepctl
  bool cache = false;  // a fresh block-solve cache per request
};

struct OneshotAnswer {
  std::string error;  // a non-OK status anywhere, else empty
  double ms = 0;      // request latency, parse included
  // check
  int verdict = -1;  // 1 optimal, 0 not optimal, 2 unknown
  std::vector<char> witness;  // by model fact index; empty if none
  std::vector<std::string> route;
  // construct
  std::vector<char> repair;
  // count
  uint64_t count = 0;
  bool count_exact = false;
  // cqa
  std::vector<std::vector<std::string>> answers;
  // what the request built
  size_t edges = 0;
  size_t blocks = 0;
  size_t max_block_facts = 0;
  prefrep::BlockCacheStats cache;
};

// `model` is the benchmark's own parse of `text`; it maps prefrep's fact
// ids back to labels, so answers are compared by label.
OneshotAnswer RunOneshot(Tracer& tracer, const std::string& text,
                         const std::string& op_line, const Model& model,
                         const OneshotOptions& options);

// Blocks a check's route lines say were handed to the exhaustive
// fallback (`exhaustive`) or to a polynomial checker (otherwise).
size_t BlocksOnRoute(const std::vector<std::string>& route, bool exhaustive);

}  // namespace perfbench

#endif  // PERFBENCH_ONESHOT_H_

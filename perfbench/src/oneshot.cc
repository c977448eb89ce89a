#include "oneshot.h"

#include <algorithm>
#include <memory>

#include "io/ops_format.h"
#include "io/text_format.h"
#include "model/context.h"
#include "query/consistent_answers.h"
#include "repair/block_solver.h"
#include "repair/checker.h"
#include "repair/construct.h"

namespace perfbench {

namespace {

std::vector<char> ToModelSet(const prefrep::Instance& instance,
                             const prefrep::DynamicBitset& bits,
                             const Model& model, std::string* error) {
  std::vector<char> out(model.facts.size(), 0);
  bits.ForEach([&](size_t id) {
    const int f = model.Find(instance.label(static_cast<prefrep::FactId>(id)));
    if (f < 0) {
      *error = "answer names an unknown fact";
    } else {
      out[static_cast<size_t>(f)] = 1;
    }
  });
  return out;
}

}  // namespace

OneshotAnswer RunOneshot(Tracer& tracer, const std::string& text,
                         const std::string& op_line, const Model& model,
                         const OneshotOptions& options) {
  using namespace prefrep;
  OneshotAnswer out;
  const char* root = "request.oneshot";
  tracer.NextRequest();
  const int64_t start = NowNs();
  const int root_span = tracer.Begin(root);

  std::unique_ptr<PreferredRepairProblem> problem;
  {
    ScopedSpan span(tracer, "io.parse");
    Result<PreferredRepairProblem> parsed = ParseProblemText(text);
    if (!parsed.ok()) {
      out.error = parsed.status().ToString();
    } else {
      problem = std::make_unique<PreferredRepairProblem>(std::move(*parsed));
    }
  }
  Result<SessionOp> op = Status::Internal("unparsed");
  {
    ScopedSpan span(tracer, "io.ops_parse");
    op = ParseSessionOp(op_line);
  }
  if (!op.ok()) {
    out.error = op.status().ToString();
  }
  std::unique_ptr<BlockSolveCache> cache;
  std::unique_ptr<ProblemContext> ctx;
  DynamicBitset bits;
  bool have_bits = false;
  if (out.error.empty()) {
    ctx = std::make_unique<ProblemContext>(*problem->instance,
                                           *problem->priority);
    ctx->set_parallelism(options.threads);
    if (options.cache) {
      ScopedSpan span(tracer, "cache.new");
      cache = std::make_unique<BlockSolveCache>();
      ctx->set_block_cache(cache.get());
    }
    {
      ScopedSpan span(tracer, "conflicts.graph");
      ctx->conflict_graph();
    }
    {
      ScopedSpan span(tracer, "conflicts.blocks");
      ctx->blocks();
    }
    {
      ScopedSpan span(tracer, "classify.schema");
      ctx->classification();
    }
    switch (op->kind) {
      case SessionOp::Kind::kCheck: {
        ScopedSpan span(tracer, "repair.check");
        RepairChecker checker(*ctx);
        Result<CheckOutcome> outcome = checker.CheckGloballyOptimal(problem->j);
        if (!outcome.ok()) {
          out.error = outcome.status().ToString();
          break;
        }
        out.verdict = !outcome->result.known() ? 2
                      : outcome->result.optimal ? 1
                                                : 0;
        if (outcome->result.witness.has_value()) {
          bits = outcome->result.witness->improvement;
          have_bits = true;
        }
        out.route = outcome->route;
        break;
      }
      case SessionOp::Kind::kConstruct: {
        ScopedSpan span(tracer, "repair.construct");
        Result<DynamicBitset> repair = TryConstructGloballyOptimalRepair(*ctx);
        if (!repair.ok()) {
          out.error = repair.status().ToString();
          break;
        }
        bits = std::move(*repair);
        have_bits = true;
        break;
      }
      case SessionOp::Kind::kCount: {
        ScopedSpan span(tracer, "repair.count");
        const BoundedCount count =
            CountOptimalRepairsByBlocksBounded(*ctx, RepairSemantics::kGlobal);
        out.count = count.lower_bound;
        out.count_exact = count.exact && !count.saturated;
        break;
      }
      case SessionOp::Kind::kCqa: {
        Result<ConjunctiveQuery> query = Status::Internal("unparsed");
        {
          ScopedSpan span(tracer, "query.parse");
          query = ConjunctiveQuery::Parse(op->query);
        }
        if (!query.ok()) {
          out.error = query.status().ToString();
          break;
        }
        ScopedSpan span(tracer, "query.cqa");
        auto answers =
            ConsistentAnswersBounded(*ctx, *query, op->semantics);
        if (!answers.ok()) {
          out.error = answers.status().ToString();
          break;
        }
        out.answers = std::move(*answers);
        break;
      }
      default:
        out.error = "request kind not served one-shot: " + op_line;
    }
  }
  tracer.End(root_span);
  out.ms = static_cast<double>(NowNs() - start) / 1e6;

  // Outside the timed request: map the answer back to labels and note
  // what was built.
  if (have_bits) {
    std::vector<char> set = ToModelSet(*problem->instance, bits, model,
                                       &out.error);
    (op->kind == SessionOp::Kind::kCheck ? out.witness : out.repair) =
        std::move(set);
  }
  if (ctx != nullptr) {
    out.edges = ctx->conflict_graph().num_edges();
    out.blocks = ctx->blocks().num_blocks();
    for (size_t b = 0; b < out.blocks; ++b) {
      out.max_block_facts =
          std::max(out.max_block_facts, ctx->blocks().block(b).size());
    }
  }
  if (cache != nullptr) {
    out.cache = cache->stats();
  }
  return out;
}

size_t BlocksOnRoute(const std::vector<std::string>& route, bool exhaustive) {
  size_t total = 0;
  for (const std::string& step : route) {
    const size_t over = step.find(" over ");
    if (over != std::string::npos &&
        (step.find("exhaustive") != std::string::npos) == exhaustive) {
      total += std::stoul(step.substr(over + 6));
    }
  }
  return total;
}

}  // namespace perfbench

// serve_durable: a resident DurableSession replaying a Zipf
// MakeEditScriptWorkload script — inserts, deletes, revivals, prefer
// edges and J re-anchors beside the full 8-way query rotation — with
// the daemon's defaults (hardware threads, cache on) and the WAL at
// fsync=batch in a private directory.  After the script the session is
// dropped without a checkpoint and reopened from its WAL, which times
// recovery.
//
// Oracle.  Every shard of the script is a clique (FD 1 -> 2, one
// attribute-1 constant per shard, distinct attribute-2 constants), so a
// repair keeps exactly one live fact of every nonempty shard, and under
// the global, Pareto and completion semantics alike the optimal choices
// are the facts no live fact of the shard is preferred over.  The
// benchmark keeps its own mirror of live facts, prefer edges and J,
// updated by the script's edits, and derives every expected verdict,
// count, constructed repair and CQA answer set from it.

#include <algorithm>
#include <filesystem>
#include <set>
#include <tuple>

#include "gen/edit_script.h"
#include "io/ops_format.h"
#include "io/text_format.h"
#include "persist/durable_session.h"
#include "persist/wal.h"
#include "serve/session.h"

#include "common.h"

namespace perfbench {

namespace {

constexpr const char* kTag = "serve_durable";

// Eight short sessions per round rather than one long one: the cost of a
// script (above all of its CQA repair products) varies a lot with its
// seed, and the sum over eight scripts varies much less.
constexpr size_t kSessionsPerRound = 8;

// One solver thread, not the daemon's hardware default: every resident
// query on these tiny blocks would spawn and join a thread pool, and on
// a shared VM that cost alone moved query latency up to 5x between runs
// of the same inputs.  serve.parallel_speedup in the traced run reports
// what the hardware default costs.
constexpr size_t kSessionThreads = 1;

prefrep::EditScriptOptions ScriptOptions(uint64_t generator_seed) {
  prefrep::EditScriptOptions o;
  o.shards = 5;
  o.facts_per_shard = 3;
  o.num_ops = 150;
  o.seed = generator_seed;
  return o;
}

// What a session's state should be, from the edits alone.
class Mirror {
 public:
  void Reset(const Model& base) {
    consts_.clear();
    live_.clear();
    edges_.clear();
    j_.clear();
    for (const ModelFact& f : base.facts) {
      consts_[f.label] = f.vals;
      live_.insert(f.label);
    }
    for (const auto& [hi, lo] : base.prefer) {
      edges_.emplace(base.facts[static_cast<size_t>(hi)].label,
                     base.facts[static_cast<size_t>(lo)].label);
    }
    for (int f : base.j) {
      j_.insert(base.facts[static_cast<size_t>(f)].label);
    }
  }

  // Applies an edit; returns false if the script asked for something
  // the mirror cannot do (then the benchmark's reading is wrong).
  bool Apply(const prefrep::SessionOp& op) {
    using K = prefrep::SessionOp::Kind;
    switch (op.kind) {
      case K::kInsert:
        consts_[op.label] = op.constants;
        live_.insert(op.label);
        return true;
      case K::kDelete:
        if (!live_.erase(op.label)) {
          return false;
        }
        j_.erase(op.label);
        for (auto it = edges_.begin(); it != edges_.end();) {
          it = it->first == op.label || it->second == op.label
                   ? edges_.erase(it)
                   : std::next(it);
        }
        return true;
      case K::kPrefer:
        for (size_t i = 0; i + 1 < op.chain.size(); ++i) {
          if (!live_.count(op.chain[i]) || !live_.count(op.chain[i + 1])) {
            return false;
          }
          edges_.emplace(op.chain[i], op.chain[i + 1]);
        }
        return true;
      case K::kJSet:
        j_.clear();
        [[fallthrough]];
      case K::kJAdd:
        for (const std::string& l : op.labels) {
          j_.insert(l);
        }
        return true;
      case K::kJDel:
        for (const std::string& l : op.labels) {
          j_.erase(l);
        }
        return true;
      default:
        return true;
    }
  }

  std::map<std::string, std::vector<std::string>> Shards() const {
    std::map<std::string, std::vector<std::string>> out;
    for (const std::string& l : live_) {
      out[consts_.at(l)[0]].push_back(l);
    }
    return out;
  }
  // Facts of a shard no live fact is preferred over.
  std::vector<std::string> Optimal(const std::vector<std::string>& shard) const {
    std::vector<std::string> out;
    for (const std::string& f : shard) {
      bool beaten = false;
      for (const std::string& g : shard) {
        beaten = beaten || edges_.count({g, f}) > 0;
      }
      if (!beaten) {
        out.push_back(f);
      }
    }
    return out;
  }
  bool JOptimal() const {
    for (const auto& [shard, facts] : Shards()) {
      size_t in_j = 0;
      for (const std::string& f : facts) {
        in_j += j_.count(f);
      }
      if (in_j != 1) {
        return false;
      }
      const std::vector<std::string> opt = Optimal(facts);
      bool ok = false;
      for (const std::string& f : opt) {
        ok = ok || j_.count(f) > 0;
      }
      if (!ok) {
        return false;
      }
    }
    return true;
  }
  uint64_t Count() const {
    uint64_t n = 1;
    for (const auto& [shard, facts] : Shards()) {
      n *= Optimal(facts).size();
    }
    return n;
  }
  std::set<std::string> ShardsCertain() const {
    std::set<std::string> out;
    for (const auto& [shard, facts] : Shards()) {
      out.insert(shard);
    }
    return out;
  }
  std::set<std::string> LoneValues() const {
    std::set<std::string> out;
    for (const auto& [shard, facts] : Shards()) {
      if (facts.size() == 1) {
        out.insert(consts_.at(facts[0])[1]);
      }
    }
    return out;
  }
  std::string StateKey() const {
    std::string k;
    for (const std::string& l : live_) {
      k += l + ",";
    }
    k += "|";
    for (const auto& [a, b] : edges_) {
      k += a + ">" + b + ",";
    }
    k += "|";
    for (const std::string& l : j_) {
      k += l + ",";
    }
    return k;
  }

  const std::set<std::string>& live() const { return live_; }
  const std::set<std::string>& j() const { return j_; }
  bool Edge(const std::string& a, const std::string& b) const {
    return edges_.count({a, b}) > 0;
  }
  bool Live(const std::string& l) const { return live_.count(l) > 0; }
  const std::vector<std::string>& consts(const std::string& l) const {
    return consts_.at(l);
  }

 private:
  std::map<std::string, std::vector<std::string>> consts_;
  std::set<std::string> live_;
  std::set<std::pair<std::string, std::string>> edges_;
  std::set<std::string> j_;
};

// "{a, b}" -> {a, b}
std::set<std::string> ParseSet(std::string_view s) {
  std::set<std::string> out;
  const size_t open = s.find('{'), close = s.find('}');
  if (open == std::string_view::npos || close == std::string_view::npos) {
    return out;
  }
  std::string_view body = s.substr(open + 1, close - open - 1);
  while (!body.empty()) {
    const size_t comma = body.find(',');
    std::string_view item = body.substr(0, comma);
    while (!item.empty() && item.front() == ' ') {
      item.remove_prefix(1);
    }
    if (!item.empty()) {
      out.emplace(item);
    }
    if (comma == std::string_view::npos) {
      break;
    }
    body.remove_prefix(comma + 1);
  }
  return out;
}

std::string FirstLine(const std::string& s) { return s.substr(0, s.find('\n')); }

// Checks one reply against the mirror (already updated for edits).
// Returns an empty string when the reply is right.
std::string CheckReply(const prefrep::SessionOp& op, const std::string& reply,
                       const Mirror& mirror) {
  using K = prefrep::SessionOp::Kind;
  const std::string head = FirstLine(reply);
  switch (op.kind) {
    case K::kInsert:
    case K::kDelete:
    case K::kPrefer:
    case K::kBudget:
      return head.rfind("ok", 0) == 0 ? "" : "edit not acknowledged";
    case K::kJSet:
    case K::kJAdd:
    case K::kJDel:
      return ParseSet(head) == mirror.j() ? "" : "J differs from the mirror";
    case K::kCheck: {
      const bool optimal = head.size() >= 9 &&
                           head.compare(head.size() - 9, 9, ": optimal") == 0;
      if (optimal != mirror.JOptimal()) {
        return "verdict differs from the mirror: " + head;
      }
      const size_t w = reply.find("\nwitness: ");
      if (!optimal && w != std::string::npos) {
        // A consistent global improvement of J (Definition 2.4).
        const std::set<std::string> witness =
            ParseSet(reply.substr(w + 10, reply.find('\n', w + 10) - w - 10));
        std::map<std::string, int> per_shard;
        for (const std::string& l : witness) {
          if (!mirror.Live(l) || ++per_shard[mirror.consts(l)[0]] > 1) {
            return "witness is not a consistent set of live facts";
          }
        }
        bool differs = false;
        for (const std::string& f : mirror.j()) {
          if (witness.count(f)) {
            continue;
          }
          differs = true;
          bool covered = false;
          for (const std::string& g : witness) {
            covered = covered || (!mirror.j().count(g) && mirror.Edge(g, f));
          }
          if (!covered) {
            return "witness drops " + f + " without a preferred fact";
          }
        }
        for (const std::string& g : witness) {
          differs = differs || !mirror.j().count(g);
        }
        if (!differs) {
          return "witness equals J";
        }
      }
      return "";
    }
    case K::kCount: {
      const std::string want = ": " + std::to_string(mirror.Count());
      return head.size() >= want.size() &&
                     head.compare(head.size() - want.size(), want.size(),
                                  want) == 0
                 ? ""
                 : "count differs from the mirror: " + head;
    }
    case K::kConstruct: {
      const std::set<std::string> repair = ParseSet(head);
      size_t expected = 0;
      for (const auto& [shard, facts] : mirror.Shards()) {
        ++expected;
        size_t hits = 0;
        for (const std::string& f : mirror.Optimal(facts)) {
          hits += repair.count(f);
        }
        if (hits != 1) {
          return "constructed repair misses an optimal fact of " + shard;
        }
      }
      return repair.size() == expected ? ""
                                       : "constructed repair has extra facts";
    }
    case K::kCqa: {
      std::set<std::string> got;
      size_t lines = 0;
      size_t pos = reply.find('\n');
      while (pos != std::string::npos) {
        const size_t end = reply.find('\n', pos + 1);
        const std::string line = reply.substr(pos + 1, end - pos - 1);
        if (line.rfind("  (", 0) == 0) {
          got.insert(line.substr(3, line.size() - 4));
          ++lines;
        }
        pos = end;
      }
      const std::set<std::string> want =
          op.semantics == prefrep::AnswerSemantics::kAllRepairs
              ? mirror.LoneValues()
              : mirror.ShardsCertain();
      return got == want && lines == got.size()
                 ? ""
                 : "answers differ from the mirror: " + head;
    }
    default:
      return "";
  }
}

bool IsQuery(prefrep::SessionOp::Kind k) {
  using K = prefrep::SessionOp::Kind;
  return k == K::kCheck || k == K::kCount || k == K::kConstruct ||
         k == K::kCqa;
}

// One session's input: the base problem and its edit script.
struct Script {
  std::string base_text;
  Model base;
  std::vector<std::string> ops;
  std::unique_ptr<prefrep::PreferredRepairProblem> problem;

  // The mirror after the whole script, and before its last
  // state-changing edit.
  void MirrorStates(Mirror* final_state, Mirror* before_last) const {
    final_state->Reset(base);
    *before_last = *final_state;
    std::string previous_key = final_state->StateKey();
    for (const std::string& line : ops) {
      auto op = prefrep::ParseSessionOp(line);
      if (!op.ok() || IsQuery(op->kind)) {
        continue;
      }
      Mirror snapshot = *final_state;
      final_state->Apply(*op);
      if (final_state->StateKey() != previous_key) {
        *before_last = std::move(snapshot);
        previous_key = final_state->StateKey();
      }
    }
  }
};

class ServeDurable : public Workload {
 public:
  const char* name() const override { return kTag; }

  void Setup(uint64_t seed) override {
    // The script shapes are fixed (generator seeds 1..8); the run's seed
    // renames every label and constant.  A script's cost swings several
    // fold with its generator seed, which would drown any change the
    // benchmark is meant to show.
    const std::string salt = "r" + std::to_string(seed % 9973) + "_";
    scripts_.clear();
    for (size_t k = 0; k < kSessionsPerRound; ++k) {
      prefrep::EditScriptWorkload w =
          prefrep::MakeEditScriptWorkload(ScriptOptions(k + 1));
      Model generated;
      const std::string error =
          generated.Parse(prefrep::ProblemToText(w.problem));
      if (!error.empty()) {
        std::fprintf(stderr, "perfbench: base problem unreadable: %s\n",
                     error.c_str());
        std::abort();
      }
      Script script;
      script.base.rels = generated.rels;
      for (const ModelFact& f : generated.facts) {
        std::vector<std::string> vals;
        for (const std::string& v : f.vals) {
          vals.push_back(salt + v);
        }
        script.base.AddFact(salt + f.label, f.rel, std::move(vals));
      }
      script.base.prefer = generated.prefer;
      script.base.j = generated.j;
      script.base_text = script.base.Render();
      for (const std::string& line : w.ops) {
        prefrep::Result<prefrep::SessionOp> op = prefrep::ParseSessionOp(line);
        if (!op.ok()) {
          std::fprintf(stderr, "perfbench: script line unreadable: %s\n",
                       line.c_str());
          std::abort();
        }
        if (!op->label.empty()) {
          op->label = salt + op->label;
        }
        for (std::vector<std::string>* names :
             {&op->constants, &op->chain, &op->labels}) {
          for (std::string& n : *names) {
            n = salt + n;
          }
        }
        script.ops.push_back(prefrep::SessionOpToString(*op));
      }
      scripts_.push_back(std::move(script));
    }
    verified_.clear();
  }

  void RunRound(Tracer& tracer, Tally& tally, RoundTimes& times) override {
    for (size_t k = 0; k < scripts_.size(); ++k) {
      SessionOnce(k, tracer, tally, times, nullptr, nullptr);
    }
  }

  void Probe(Tracer& tracer, Tally& tally, Metrics& out) override;
  int SelfTest(std::vector<std::string>& report) override;

 private:
  // Replays script k on a fresh durable session, then reopens it from
  // the WAL.  The out-parameters, if given, receive the recovery time
  // per replayed op and the WAL size before the reopen.
  void SessionOnce(size_t k, Tracer& tracer, Tally& tally, RoundTimes& times,
                   double* recover_us_per_op, double* wal_bytes);

  const prefrep::PreferredRepairProblem& Problem(size_t k) {
    Script& script = scripts_[k];
    if (script.problem == nullptr) {
      auto p = prefrep::ParseProblemText(script.base_text);
      if (!p.ok()) {
        std::fprintf(stderr, "perfbench: base problem: %s\n",
                     p.status().ToString().c_str());
        std::abort();
      }
      script.problem =
          std::make_unique<prefrep::PreferredRepairProblem>(std::move(*p));
    }
    return *script.problem;
  }

  std::vector<Script> scripts_;
  // (script, op index, reply) triples already checked against the mirror.
  std::set<std::tuple<size_t, size_t, std::string>> verified_;
  int sessions_ = 0;
};

// Compares a session's live facts, prefer edges and J with the mirror.
std::string CompareState(prefrep::SessionContext& s, const Mirror& mirror) {
  const prefrep::Instance& inst = s.instance();
  std::set<std::string> live;
  std::map<std::string, prefrep::FactId> id;
  s.live().ForEach([&](size_t f) {
    live.insert(inst.label(static_cast<prefrep::FactId>(f)));
    id[inst.label(static_cast<prefrep::FactId>(f))] =
        static_cast<prefrep::FactId>(f);
  });
  if (live != mirror.live()) {
    return "live facts differ from the mirror";
  }
  std::set<std::string> j;
  s.JSubinstance().ForEach([&](size_t f) {
    j.insert(inst.label(static_cast<prefrep::FactId>(f)));
  });
  if (j != mirror.j()) {
    return "J differs from the mirror";
  }
  for (const auto& [a, ia] : id) {
    for (const auto& [b, ib] : id) {
      if (a != b && s.priority().Prefers(ia, ib) != mirror.Edge(a, b)) {
        return "prefer edge " + a + " > " + b + " differs from the mirror";
      }
    }
  }
  return "";
}

void ServeDurable::SessionOnce(size_t k, Tracer& tracer, Tally& tally,
                               RoundTimes& times, double* recover_us_per_op,
                               double* wal_bytes) {
  using namespace prefrep;
  namespace fs = std::filesystem;
  const Script& script = scripts_[k];
  const std::string dir = ScratchDir() + "/serve" + std::to_string(sessions_++);
  fs::remove_all(dir);
  fs::create_directories(dir);
  SessionOptions session_options;
  session_options.threads = kSessionThreads;
  session_options.cache_capacity = BlockSolveCache::kDefaultCapacity;
  DurabilityOptions durability;
  durability.wal_path = dir + "/wal";
  durability.fsync = FsyncMode::kBatch;
  const PreferredRepairProblem& problem = Problem(k);

  Result<std::unique_ptr<DurableSession>> session =
      DurableSession::Open(problem, session_options, durability);
  if (!session.ok()) {
    tally.Fail("open: " + session.status().ToString(), false);
    return;
  }
  Mirror mirror;
  mirror.Reset(script.base);
  uint64_t logged = 0;
  for (size_t i = 0; i < script.ops.size(); ++i) {
    ++tally.attempted;
    tracer.NextRequest();
    const int64_t start = NowNs();
    const int root = tracer.Begin("request.op");
    Result<SessionOp> op = Status::Internal("unparsed");
    {
      ScopedSpan span(tracer, "io.ops_parse");
      op = ParseSessionOp(script.ops[i]);
    }
    Result<std::string> reply = Status::Internal("unparsed op");
    const bool query = op.ok() && IsQuery(op->kind);
    if (op.ok()) {
      ScopedSpan span(tracer,
                      query ? "serve.durable_query" : "serve.durable_edit");
      reply = (*session)->Execute(*op);
    }
    tracer.End(root);
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    times.Add(ms);
    if (op.ok() && op->kind == SessionOp::Kind::kCheck) {
      times.check_ms.push_back(ms);
    } else if (op.ok() && op->kind == SessionOp::Kind::kConstruct) {
      times.construct_ms.push_back(ms);
    }
    if (!reply.ok()) {
      tally.Fail("op " + std::to_string(i) + ": " + reply.status().ToString(),
                 false);
      continue;
    }
    if (!query && !mirror.Apply(*op)) {
      tally.Fail("op " + std::to_string(i) + ": mirror cannot apply", true);
      continue;
    }
    logged += DurableSession::IsDurableEdit(op->kind);
    if (reply->find("unknown") != std::string::npos) {
      tally.Fail("op " + std::to_string(i) + ": unknown reply", false);
      continue;
    }
    if (verified_.count({k, i, *reply})) {
      continue;
    }
    const std::string why = CheckReply(*op, *reply, mirror);
    if (!why.empty()) {
      tally.Fail("op " + std::to_string(i) + " (" + script.ops[i] + "): " + why,
                 true);
      continue;
    }
    verified_.insert({k, i, *reply});
  }
  if (wal_bytes != nullptr) {
    *wal_bytes = static_cast<double>(fs::file_size(durability.wal_path));
  }
  // Drop the session without Close(): nothing is checkpointed, so the
  // reopen replays every logged edit.
  session->reset();
  ++tally.attempted;
  tracer.NextRequest();
  const int64_t start = NowNs();
  Result<std::unique_ptr<DurableSession>> recovered = Status::Internal("");
  {
    ScopedSpan span(tracer, "persist.recover");
    recovered = DurableSession::Open(problem, session_options, durability);
  }
  const double ms = static_cast<double>(NowNs() - start) / 1e6;
  times.Add(ms);
  if (!recovered.ok()) {
    tally.Fail("recovery: " + recovered.status().ToString(), false);
    return;
  }
  if (recover_us_per_op != nullptr) {
    *recover_us_per_op =
        ms * 1000.0 /
        static_cast<double>(std::max<uint64_t>(
            1, (*recovered)->recovery().ops_replayed));
  }
  std::string why = (*recovered)->recovery().ops_replayed == logged
                        ? CompareState((*recovered)->session(), mirror)
                        : "recovery replayed " +
                              std::to_string((*recovered)->recovery().ops_replayed) +
                              " of " + std::to_string(logged) + " logged edits";
  if (!why.empty()) {
    tally.Fail("recovered session: " + why, true);
  }
  // The recovered session must answer like the mirror.
  static const char* const kQueries[] = {
      "check global", "count global", "construct", "cqa global Q(x) :- R(x, y, z)",
      "cqa repairs Q(y) :- R(x, y, z)"};
  for (const char* line : kQueries) {
    ++tally.attempted;
    Result<SessionOp> op = ParseSessionOp(line);
    const int64_t q_start = NowNs();
    Result<std::string> reply = op.ok() ? (*recovered)->Execute(*op)
                                        : Result<std::string>(op.status());
    times.Add(static_cast<double>(NowNs() - q_start) / 1e6);
    if (!reply.ok()) {
      tally.Fail(std::string("after recovery, ") + line + ": " +
                     reply.status().ToString(),
                 false);
      continue;
    }
    why = CheckReply(*op, *reply, mirror);
    if (!why.empty()) {
      tally.Fail(std::string("after recovery, ") + line + ": " + why, true);
    }
  }
  const Status closed = (*recovered)->Close();
  if (!closed.ok()) {
    tally.Fail("close: " + closed.ToString(), false);
  }
  recovered->reset();
  fs::remove_all(dir);
}

int ServeDurable::SelfTest(std::vector<std::string>& report) {
  using namespace prefrep;
  const Script& script = scripts_[0];
  Mirror final_state, before_last;
  script.MirrorStates(&final_state, &before_last);
  Result<std::unique_ptr<SessionContext>> s =
      SessionContext::Create(Problem(0), SessionOptions{});
  if (!s.ok()) {
    report.push_back("FAIL serve_durable: cannot open a session");
    return 1;
  }
  // Replay everything; keep the last reply of each query kind with the
  // mirror as it stood then.
  Mirror mirror;
  mirror.Reset(script.base);
  struct Reply {
    SessionOp op;
    std::string text;
    Mirror mirror;
  };
  std::map<int, Reply> replies;
  for (const std::string& line : script.ops) {
    Result<SessionOp> op = ParseSessionOp(line);
    if (!op.ok()) {
      continue;
    }
    Result<std::string> reply = (*s)->Execute(*op);
    if (!IsQuery(op->kind)) {
      mirror.Apply(*op);
    } else if (reply.ok()) {
      replies[static_cast<int>(op->kind) * 8 +
              static_cast<int>(op->semantics)] = Reply{*op, *reply, mirror};
    }
  }
  int bad = 0;
  bad += SelfTestCase(report, kTag, "session state vs mirror", true,
                      CompareState(**s, final_state));
  bad += SelfTestCase(report, kTag,
                      "session state vs mirror missing the last edit", false,
                      CompareState(**s, before_last));
  for (const auto& [key, entry] : replies) {
    const SessionOp& op = entry.op;
    const std::string& reply = entry.text;
    const Mirror& mirror = entry.mirror;
    const std::string what = FirstLine(reply);
    bad += SelfTestCase(report, kTag, what + " as answered", true,
                        CheckReply(op, reply, mirror));
    std::string corrupt = reply;
    switch (op.kind) {
      case SessionOp::Kind::kCheck: {
        const size_t pos = corrupt.find(": ");
        const bool optimal = FirstLine(corrupt).find("not optimal") ==
                             std::string::npos;
        corrupt = corrupt.substr(0, pos) +
                  (optimal ? ": not optimal" : ": optimal");
        bad += SelfTestCase(report, kTag, what + ", verdict flipped", false,
                            CheckReply(op, corrupt, mirror));
        break;
      }
      case SessionOp::Kind::kCount: {
        const size_t pos = corrupt.rfind(' ');
        corrupt = corrupt.substr(0, pos + 1) +
                  std::to_string(std::stoull(corrupt.substr(pos + 1)) + 1);
        bad += SelfTestCase(report, kTag, what + ", off by one", false,
                            CheckReply(op, corrupt, mirror));
        break;
      }
      case SessionOp::Kind::kCqa: {
        const size_t tuple = corrupt.find("\n  (");
        if (tuple != std::string::npos) {
          corrupt.erase(tuple, corrupt.find('\n', tuple + 1) - tuple);
          bad += SelfTestCase(report, kTag, what + ", one tuple dropped",
                              false, CheckReply(op, corrupt, mirror));
        }
        break;
      }
      case SessionOp::Kind::kConstruct: {
        const size_t comma = corrupt.find(", ");
        if (comma != std::string::npos) {
          corrupt.erase(comma, corrupt.find_first_of(",}", comma + 1) - comma);
          bad += SelfTestCase(report, kTag, what + ", one fact dropped", false,
                              CheckReply(op, corrupt, mirror));
        }
        break;
      }
      default:
        break;
    }
  }
  return bad;
}

void ServeDurable::Probe(Tracer& tracer, Tally& tally, Metrics& out) {
  using namespace prefrep;
  namespace fs = std::filesystem;
  tracer.set_tag(kTag);
  RoundTimes times;
  std::vector<double> recover_us;
  double wal_bytes = 0;
  for (size_t k = 0; k < scripts_.size(); ++k) {
    double us = 0, bytes = 0;
    SessionOnce(k, tracer, tally, times, &us, &bytes);
    recover_us.push_back(us);
    wal_bytes += bytes;
  }
  out["io.ops_parse_us"] =
      Median(tracer.DurationsMs("io.ops_parse", kTag)) * 1000.0;
  out["persist.replay_us_per_op"] = Median(recover_us);
  out["persist.wal_bytes"] = wal_bytes;

  // Bare resident sessions replaying the same scripts, at the hardware
  // thread count and serially.
  std::vector<double> edit_us, query_us;
  double query_all = 0, query_serial = 0;
  SessionStats stats;
  BlockCacheStats cache;
  uint64_t memo_hits = 0, memo_misses = 0;
  for (size_t k = 0; k < scripts_.size(); ++k) {
    for (size_t threads : {size_t{0}, size_t{1}}) {
      SessionOptions options;
      options.threads = threads;
      options.cache_capacity = BlockSolveCache::kDefaultCapacity;
      Result<std::unique_ptr<SessionContext>> s =
          SessionContext::Create(Problem(k), options);
      if (!s.ok()) {
        tally.Fail("bare session: " + s.status().ToString(), false);
        return;
      }
      for (const std::string& line : scripts_[k].ops) {
        Result<SessionOp> op = ParseSessionOp(line);
        if (!op.ok()) {
          tally.Fail("bare session: " + op.status().ToString(), false);
          continue;
        }
        const bool query = IsQuery(op->kind);
        const int64_t start = NowNs();
        Result<std::string> reply = Status::Internal("");
        {
          ScopedSpan span(tracer, threads == 1 ? "serve.serial_op"
                                  : query      ? "serve.query"
                                               : "serve.edit");
          reply = (*s)->Execute(*op);
        }
        const double us = static_cast<double>(NowNs() - start) / 1e3;
        if (!reply.ok()) {
          tally.Fail("bare session op: " + reply.status().ToString(), false);
        }
        if (threads == 1) {
          query_serial += query ? us : 0.0;
          continue;
        }
        (query ? query_us : edit_us).push_back(us);
        query_all += query ? us : 0.0;
      }
      if (threads == 0) {
        stats.blocks_retired += (*s)->stats().blocks_retired;
        stats.cache_entries_erased += (*s)->stats().cache_entries_erased;
        cache.hits += (*s)->cache()->stats().hits;
        cache.misses += (*s)->cache()->stats().misses;
        memo_hits += (*s)->categoricity_memo().hits();
        memo_misses += (*s)->categoricity_memo().misses();
      }
    }
  }
  out["serve.edit_us"] = Median(edit_us);
  out["serve.query_us"] = Median(query_us);
  out["serve.parallel_speedup"] = query_serial / query_all;
  out["serve.blocks_retired"] = static_cast<double>(stats.blocks_retired);
  out["serve.cache_entries_erased"] =
      static_cast<double>(stats.cache_entries_erased);
  out["serve.cache_hit_ratio"] =
      cache.hits + cache.misses > 0
          ? static_cast<double>(cache.hits) /
                static_cast<double>(cache.hits + cache.misses)
          : 0.0;
  out["serve.memo_hits"] = static_cast<double>(memo_hits);
  out["serve.memo_misses"] = static_cast<double>(memo_misses);

  // A WalWriter fed the rendered edit ops: append, and sync every
  // batch the way fsync=batch does.
  const std::string dir = ScratchDir() + "/walprobe";
  fs::remove_all(dir);
  fs::create_directories(dir);
  WalWriter wal;
  if (!wal.Open(dir + "/wal", FsyncMode::kOff, 1).ok()) {
    tally.Fail("wal probe: open failed", false);
    return;
  }
  std::vector<double> append_us, sync_us;
  size_t appended = 0;
  for (const Script& script : scripts_) {
    for (const std::string& line : script.ops) {
      Result<SessionOp> op = ParseSessionOp(line);
      if (!op.ok() || !DurableSession::IsDurableEdit(op->kind)) {
        continue;
      }
      const std::string payload = SessionOpToString(*op);
      int64_t start = NowNs();
      Result<uint64_t> seq = Status::Internal("");
      {
        ScopedSpan span(tracer, "persist.append");
        seq = wal.Append(payload);
      }
      append_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
      if (!seq.ok()) {
        tally.Fail("wal probe: append failed", false);
        break;
      }
      if (++appended % kWalBatchSyncEvery == 0) {
        start = NowNs();
        Status synced = Status::OK();
        {
          ScopedSpan span(tracer, "persist.sync");
          synced = wal.SyncNow();
        }
        sync_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
        if (!synced.ok()) {
          tally.Fail("wal probe: sync failed", false);
        }
      }
    }
  }
  if (!wal.Close().ok()) {
    tally.Fail("wal probe: close failed", false);
  }
  fs::remove_all(dir);
  out["persist.append_us"] = Median(append_us);
  out["persist.sync_us"] = Median(sync_us);
}

}  // namespace

std::unique_ptr<Workload> MakeServeDurable() {
  return std::make_unique<ServeDurable>();
}

}  // namespace perfbench

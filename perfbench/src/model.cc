// The benchmark's own reading of the problem text format and the
// oracles built on it.  Written apart from src/io and src/conflicts on
// purpose: an answer is checked against computations that share no code
// with the program that produced it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <set>
#include <unordered_set>

#include "common.h"

namespace perfbench {

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

std::vector<double> Tracer::DurationsMs(std::string_view name,
                                        std::string_view tag) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name && tag == s.tag) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

std::map<std::string, double> Tracer::LayerSelfMs(
    std::string_view tag) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (tag != s.tag) {
      continue;
    }
    std::string_view name(s.name);
    const std::string layer(name.substr(0, name.find('.')));
    out[layer] += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                  1e6;
  }
  return out;
}

void Tally::Fail(const std::string& what, bool wrong_answer) {
  ++failed;
  if (wrong_answer) {
    ++wrong;
  }
  if (first_errors.size() < 5) {
    first_errors.push_back(what);
  }
}

int SelfTestCase(std::vector<std::string>& report, const char* workload,
                 const std::string& what, bool should_accept,
                 const std::string& oracle_says) {
  const bool accepted = oracle_says.empty();
  const bool ok = accepted == should_accept;
  report.push_back(std::string(ok ? "ok   " : "FAIL ") + workload + ": " +
                   what + " -> " +
                   (accepted ? "accepted" : "rejected (" + oracle_says + ")"));
  return ok ? 0 : 1;
}

// ----------------------------------------------------------- the text

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    const size_t end = s.find(sep, start);
    out.push_back(Trim(s.substr(start, end - start)));
    if (end == std::string_view::npos) {
      return out;
    }
    start = end + 1;
  }
}

std::vector<std::string_view> Words(std::string_view s) {
  std::vector<std::string_view> out;
  for (std::string_view w : Split(s, ' ')) {
    if (!w.empty()) {
      out.push_back(w);
    }
  }
  return out;
}

// "{1, 2}" or "1" -> 0-based positions.
bool ParseAttrs(std::string_view s, std::vector<int>* out) {
  s = Trim(s);
  if (!s.empty() && s.front() == '{') {
    if (s.back() != '}') {
      return false;
    }
    s = s.substr(1, s.size() - 2);
  }
  for (std::string_view a : Split(s, ',')) {
    if (a.empty()) {
      return false;
    }
    int v = 0;
    for (char c : a) {
      if (c < '0' || c > '9') {
        return false;
      }
      v = v * 10 + (c - '0');
    }
    out->push_back(v - 1);
  }
  return true;
}

}  // namespace

int Model::AddFact(std::string label, int rel, std::vector<std::string> vals) {
  const int id = static_cast<int>(facts.size());
  by_label.emplace(label, id);
  facts.push_back(ModelFact{std::move(label), rel, std::move(vals)});
  return id;
}

int Model::Find(std::string_view label) const {
  const auto it = by_label.find(std::string(label));
  return it == by_label.end() ? -1 : it->second;
}

std::string Model::Parse(std::string_view text) {
  *this = Model();
  std::unordered_map<std::string, int> rel_of;
  size_t line_no = 0;
  for (std::string_view raw : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw.substr(0, raw.find('#')));
    if (line.empty()) {
      continue;
    }
    const std::string where = "line " + std::to_string(line_no) + ": ";
    const std::vector<std::string_view> w = Words(line);
    if (w[0] == "relation" && w.size() == 3) {
      ModelRelation r;
      r.name = std::string(w[1]);
      r.arity = std::atoi(std::string(w[2]).c_str());
      rel_of[r.name] = static_cast<int>(rels.size());
      rels.push_back(std::move(r));
    } else if (w[0] == "fd") {
      const std::string_view rest = Trim(line.substr(2));
      const size_t colon = rest.find(':');
      const size_t arrow = rest.find("->");
      if (colon == std::string_view::npos || arrow == std::string_view::npos) {
        return where + "bad fd";
      }
      const auto it = rel_of.find(std::string(Trim(rest.substr(0, colon))));
      std::vector<int> lhs, rhs;
      if (it == rel_of.end() ||
          !ParseAttrs(rest.substr(colon + 1, arrow - colon - 1), &lhs) ||
          !ParseAttrs(rest.substr(arrow + 2), &rhs)) {
        return where + "bad fd";
      }
      rels[static_cast<size_t>(it->second)].fds.emplace_back(lhs, rhs);
    } else if (w[0] == "fact" && w.size() >= 3) {
      const std::string_view rest = Trim(line.substr(4));
      const size_t sp = rest.find(' ');
      const std::string label(rest.substr(0, sp));
      const std::string_view atom = Trim(rest.substr(sp + 1));
      const size_t open = atom.find('(');
      if (open == std::string_view::npos || atom.back() != ')') {
        return where + "bad fact";
      }
      const auto it = rel_of.find(std::string(Trim(atom.substr(0, open))));
      if (it == rel_of.end()) {
        return where + "unknown relation";
      }
      std::vector<std::string> vals;
      for (std::string_view v :
           Split(atom.substr(open + 1, atom.size() - open - 2), ',')) {
        vals.emplace_back(v);
      }
      if (static_cast<int>(vals.size()) !=
          rels[static_cast<size_t>(it->second)].arity) {
        return where + "arity mismatch";
      }
      AddFact(label, it->second, std::move(vals));
    } else if (w[0] == "prefer") {
      const std::vector<std::string_view> chain = Split(line.substr(6), '>');
      for (size_t i = 0; i + 1 < chain.size(); ++i) {
        const int hi = Find(chain[i]);
        const int lo = Find(chain[i + 1]);
        if (hi < 0 || lo < 0) {
          return where + "unknown label in prefer";
        }
        prefer.emplace_back(hi, lo);
      }
    } else if (w[0] == "j") {
      for (size_t i = 1; i < w.size(); ++i) {
        const int f = Find(w[i]);
        if (f < 0) {
          return where + "unknown label in j";
        }
        j.push_back(f);
      }
    } else {
      return where + "unrecognized line";
    }
  }
  return "";
}

std::string Model::Render() const {
  std::string out;
  for (const ModelRelation& r : rels) {
    out += "relation " + r.name + " " + std::to_string(r.arity) + "\n";
    for (const auto& [lhs, rhs] : r.fds) {
      auto set = [](const std::vector<int>& a) {
        std::string s = "{";
        for (size_t i = 0; i < a.size(); ++i) {
          s += (i ? ", " : "") + std::to_string(a[i] + 1);
        }
        return s + "}";
      };
      out += "fd " + r.name + ": " + set(lhs) + " -> " + set(rhs) + "\n";
    }
  }
  for (const ModelFact& f : facts) {
    out += "fact " + f.label + " " + rels[static_cast<size_t>(f.rel)].name +
           "(";
    for (size_t i = 0; i < f.vals.size(); ++i) {
      out += (i ? ", " : "") + f.vals[i];
    }
    out += ")\n";
  }
  for (const auto& [hi, lo] : prefer) {
    out += "prefer " + facts[static_cast<size_t>(hi)].label + " > " +
           facts[static_cast<size_t>(lo)].label + "\n";
  }
  // Long j lines are split; the format accumulates them.
  for (size_t i = 0; i < j.size(); i += 64) {
    out += "j";
    for (size_t k = i; k < std::min(j.size(), i + 64); ++k) {
      out += " " + facts[static_cast<size_t>(j[k])].label;
    }
    out += "\n";
  }
  return out;
}

std::string Model::RenderWithJ(const std::vector<char>& in) const {
  Model copy = *this;
  copy.j.clear();
  for (size_t f = 0; f < in.size(); ++f) {
    if (in[f]) {
      copy.j.push_back(static_cast<int>(f));
    }
  }
  return copy.Render();
}

// -------------------------------------------------------- conflicts

namespace {

std::string Project(const ModelFact& f, const std::vector<int>& attrs) {
  std::string key;
  for (int a : attrs) {
    key += f.vals[static_cast<size_t>(a)];
    key += '\x1f';
  }
  return key;
}

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int Find(int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] =
          parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  }
  void Union(int a, int b) { parent[static_cast<size_t>(Find(a))] = Find(b); }
};

}  // namespace

bool FactsConflict(const Model& m, int a, int b) {
  const ModelFact& fa = m.facts[static_cast<size_t>(a)];
  const ModelFact& fb = m.facts[static_cast<size_t>(b)];
  if (fa.rel != fb.rel || a == b) {
    return false;
  }
  for (const auto& [lhs, rhs] : m.rels[static_cast<size_t>(fa.rel)].fds) {
    bool agree = true;
    for (int x : lhs) {
      agree = agree && fa.vals[static_cast<size_t>(x)] ==
                           fb.vals[static_cast<size_t>(x)];
    }
    if (!agree) {
      continue;
    }
    for (int y : rhs) {
      if (fa.vals[static_cast<size_t>(y)] != fb.vals[static_cast<size_t>(y)]) {
        return true;
      }
    }
  }
  return false;
}

ConflictTruth ComputeConflicts(const Model& m) {
  ConflictTruth t;
  const size_t n = m.facts.size();
  UnionFind uf(n);
  std::vector<char> conflicted(n, 0);
  // Per FD: group by the left side, then by the right side.  Facts of a
  // left-side group with k right-side classes conflict exactly across
  // classes, so the pair count is C(group, 2) - sum C(class, 2), and
  // the group is connected when k >= 2.  A pair violating two FDs
  // would have to agree and disagree on one attribute for the schemas
  // the benchmark generates, so per-FD counts add up without overlap;
  // small instances are cross-checked pair by pair below.
  for (size_t r = 0; r < m.rels.size(); ++r) {
    for (const auto& [lhs, rhs] : m.rels[r].fds) {
      std::unordered_map<std::string, std::unordered_map<std::string,
                                                         std::vector<int>>>
          groups;
      for (size_t f = 0; f < n; ++f) {
        if (m.facts[f].rel == static_cast<int>(r)) {
          groups[Project(m.facts[f], lhs)][Project(m.facts[f], rhs)]
              .push_back(static_cast<int>(f));
        }
      }
      for (const auto& [key, classes] : groups) {
        if (classes.size() < 2) {
          continue;
        }
        uint64_t total = 0, same = 0;
        int first = -1;
        for (const auto& [rkey, members] : classes) {
          const uint64_t c = members.size();
          total += c;
          same += c * (c - 1) / 2;
          for (int f : members) {
            conflicted[static_cast<size_t>(f)] = 1;
            if (first < 0) {
              first = f;
            } else {
              uf.Union(first, f);
            }
          }
        }
        t.pairs += total * (total - 1) / 2 - same;
      }
    }
  }
  if (n <= 3000) {
    uint64_t pairs = 0;
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        pairs += FactsConflict(m, static_cast<int>(a), static_cast<int>(b));
      }
    }
    if (pairs != t.pairs) {
      std::fprintf(stderr, "perfbench: FD pair sets overlap (%llu vs %llu)\n",
                   static_cast<unsigned long long>(pairs),
                   static_cast<unsigned long long>(t.pairs));
      t.pairs = pairs;
    }
  }
  t.block_of.assign(n, -1);
  std::unordered_map<int, int> root_block;
  for (size_t f = 0; f < n; ++f) {
    if (!conflicted[f]) {
      continue;
    }
    const int root = uf.Find(static_cast<int>(f));
    auto [it, fresh] = root_block.emplace(root, static_cast<int>(t.blocks.size()));
    if (fresh) {
      t.blocks.emplace_back();
    }
    t.block_of[f] = it->second;
    t.blocks[static_cast<size_t>(it->second)].push_back(static_cast<int>(f));
  }
  t.preferred_over.assign(n, {});
  for (const auto& [hi, lo] : m.prefer) {
    t.preferred_over[static_cast<size_t>(lo)].push_back(hi);
  }
  return t;
}

bool IsConsistent(const Model& m, const std::vector<char>& in,
                  std::string* why) {
  for (size_t r = 0; r < m.rels.size(); ++r) {
    for (const auto& [lhs, rhs] : m.rels[r].fds) {
      std::unordered_map<std::string, std::pair<std::string, int>> seen;
      for (size_t f = 0; f < m.facts.size(); ++f) {
        if (!in[f] || m.facts[f].rel != static_cast<int>(r)) {
          continue;
        }
        const std::string right = Project(m.facts[f], rhs);
        auto [it, fresh] = seen.emplace(Project(m.facts[f], lhs),
                                        std::make_pair(right, static_cast<int>(f)));
        if (!fresh && it->second.first != right) {
          *why = "facts " + m.facts[static_cast<size_t>(it->second.second)].label +
                 " and " + m.facts[f].label + " violate an FD";
          return false;
        }
      }
    }
  }
  return true;
}

bool IsMaximal(const Model& m, const std::vector<char>& in, std::string* why) {
  // For a consistent set each left-side key maps to one right side; a
  // fact outside the set can be added iff no FD key of it is taken by
  // a different right side.
  std::vector<char> blocked(m.facts.size(), 0);
  for (size_t r = 0; r < m.rels.size(); ++r) {
    for (const auto& [lhs, rhs] : m.rels[r].fds) {
      std::unordered_map<std::string, std::string> taken;
      for (size_t f = 0; f < m.facts.size(); ++f) {
        if (in[f] && m.facts[f].rel == static_cast<int>(r)) {
          taken.emplace(Project(m.facts[f], lhs), Project(m.facts[f], rhs));
        }
      }
      for (size_t f = 0; f < m.facts.size(); ++f) {
        if (in[f] || m.facts[f].rel != static_cast<int>(r)) {
          continue;
        }
        const auto it = taken.find(Project(m.facts[f], lhs));
        if (it != taken.end() && it->second != Project(m.facts[f], rhs)) {
          blocked[f] = 1;
        }
      }
    }
  }
  for (size_t f = 0; f < m.facts.size(); ++f) {
    if (!in[f] && !blocked[f]) {
      *why = "fact " + m.facts[f].label + " could be added";
      return false;
    }
  }
  return true;
}

bool IsGlobalImprovement(const ConflictTruth& t, const std::vector<char>& j,
                         const std::vector<char>& w, std::string* why) {
  bool differs = false;
  for (size_t f = 0; f < j.size(); ++f) {
    if (j[f] == w[f]) {
      continue;
    }
    differs = true;
    if (!j[f]) {
      continue;  // f in w \ j
    }
    bool covered = false;
    for (int g : t.preferred_over[f]) {
      covered = covered || (w[static_cast<size_t>(g)] && !j[static_cast<size_t>(g)]);
    }
    if (!covered) {
      *why = "dropped fact #" + std::to_string(f) +
             " has no preferred fact among the added ones";
      return false;
    }
  }
  if (!differs) {
    *why = "witness equals J";
  }
  return differs;
}

uint64_t LocalMask(const std::vector<int>& block, const std::vector<char>& in) {
  uint64_t mask = 0;
  for (size_t i = 0; i < block.size(); ++i) {
    if (in[static_cast<size_t>(block[i])]) {
      mask |= uint64_t{1} << i;
    }
  }
  return mask;
}

const BlockTruth& BlockOracle::Solve(const Model& m, const ConflictTruth& t,
                                     const std::vector<int>& block) {
  const size_t k = block.size();
  if (k > 64) {
    std::fprintf(stderr, "perfbench: block of %zu facts is too large\n", k);
    std::abort();
  }
  std::vector<uint64_t> conf(k, 0), pref_in(k, 0);
  std::unordered_map<int, size_t> local;
  for (size_t i = 0; i < k; ++i) {
    local[block[i]] = i;
  }
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = 0; b < k; ++b) {
      if (FactsConflict(m, block[a], block[b])) {
        conf[a] |= uint64_t{1} << b;
      }
    }
    for (int g : t.preferred_over[static_cast<size_t>(block[a])]) {
      const auto it = local.find(g);
      if (it != local.end()) {
        pref_in[a] |= uint64_t{1} << it->second;
      }
    }
  }
  std::vector<uint64_t> key = conf;
  key.insert(key.end(), pref_in.begin(), pref_in.end());
  const auto hit = memo_.find(key);
  if (hit != memo_.end()) {
    return hit->second;
  }
  // Every maximal independent set of the block's conflict graph.
  std::vector<uint64_t> repairs;
  std::function<void(size_t, uint64_t, uint64_t)> grow =
      [&](size_t i, uint64_t chosen, uint64_t banned) {
        if (i == k) {
          for (size_t f = 0; f < k; ++f) {
            if (!((chosen >> f) & 1) && (conf[f] & chosen) == 0) {
              return;  // f could still be added: not maximal
            }
          }
          repairs.push_back(chosen);
          return;
        }
        if (!((banned >> i) & 1)) {
          grow(i + 1, chosen | (uint64_t{1} << i), banned | conf[i]);
        }
        grow(i + 1, chosen, banned);
      };
  grow(0, 0, 0);
  // A repair is globally optimal iff no repair improves it; a
  // consistent improvement extends to a maximal one that still
  // improves, so comparing repairs with repairs suffices.
  BlockTruth truth;
  truth.repairs = repairs.size();
  for (uint64_t r : repairs) {
    bool improvable = false;
    for (uint64_t s : repairs) {
      if (s == r) {
        continue;
      }
      const uint64_t dropped = r & ~s;
      const uint64_t added = s & ~r;
      bool improves = true;
      for (uint64_t d = dropped; d != 0 && improves; d &= d - 1) {
        improves = (pref_in[static_cast<size_t>(__builtin_ctzll(d))] & added) != 0;
      }
      if (improves) {
        improvable = true;
        break;
      }
    }
    if (!improvable) {
      truth.optimal.push_back(r);
    }
  }
  std::sort(truth.optimal.begin(), truth.optimal.end());
  return memo_.emplace(std::move(key), std::move(truth)).first->second;
}

}  // namespace perfbench

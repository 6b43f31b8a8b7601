#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// One completed span of an exported trace.
struct SpanRecord {
  std::string name;
  std::uint32_t tid = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;       ///< the 'B' event's payload
  std::uint64_t child_ns = 0;  ///< time covered by direct child spans

  /// The span's own time: its duration minus what its children cover.
  [[nodiscard]] std::uint64_t self_ns() const noexcept {
    return dur_ns - std::min(dur_ns, child_ns);
  }
};

/// Pairs 'B'/'E' events per thread into spans, nesting by stack order.
/// An 'E' without its 'B' (lost to ring overflow) is dropped, and so is
/// a 'B' never closed.
[[nodiscard]] inline std::vector<SpanRecord> pair_spans(
    std::span<const rcua::obs::TraceEvent> events) {
  struct Open {
    const rcua::obs::TraceEvent* begin;
    std::uint64_t child_ns;
  };
  std::map<std::uint32_t, std::vector<Open>> stacks;
  std::vector<SpanRecord> out;
  for (const rcua::obs::TraceEvent& ev : events) {
    auto& stack = stacks[ev.tid];
    if (ev.phase == 'B') {
      stack.push_back(Open{&ev, 0});
    } else if (ev.phase == 'E') {
      if (stack.empty() ||
          std::strcmp(stack.back().begin->name, ev.name) != 0) {
        continue;
      }
      const Open open = stack.back();
      stack.pop_back();
      const std::uint64_t dur =
          ev.ts_ns >= open.begin->ts_ns ? ev.ts_ns - open.begin->ts_ns : 0;
      if (!stack.empty()) stack.back().child_ns += dur;
      out.push_back(SpanRecord{ev.name, ev.tid, dur, open.begin->arg,
                               open.child_ns});
    }
  }
  return out;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Ladder rungs: spans named `<prefix><rung>` whose payload is the
/// number of calls they wrap. Returns, per rung, the median over its
/// spans of (duration / calls) in ns. A rung's duration includes the
/// layers below it; layer_self_ns() takes the difference.
[[nodiscard]] inline std::map<std::string, double> rung_ns_per_call(
    const std::vector<SpanRecord>& spans, std::string_view prefix) {
  std::map<std::string, std::vector<double>> samples;
  for (const SpanRecord& s : spans) {
    if (s.arg == 0 || s.name.compare(0, prefix.size(), prefix) != 0) continue;
    samples[s.name.substr(prefix.size())].push_back(
        static_cast<double>(s.dur_ns) / static_cast<double>(s.arg));
  }
  std::map<std::string, double> out;
  for (auto& [rung, v] : samples) out[rung] = median(std::move(v));
  return out;
}

/// A layer's self time on the ladder: its rung minus the rung below.
[[nodiscard]] inline double layer_self_ns(
    const std::map<std::string, double>& rungs, const std::string& rung,
    const std::string& below) {
  const auto a = rungs.find(rung);
  const auto b = rungs.find(below);
  if (a == rungs.end() || b == rungs.end()) return 0.0;
  return a->second - b->second;
}

}  // namespace perfbench

// Unit tests of the benchmark's own arithmetic: histogram percentiles,
// span pairing and ladder self times, and the correctness oracle.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <vector>

#include "hist.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "spans.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double got, double want, double rel) {
  return std::fabs(got - want) <= rel * std::fabs(want);
}

using perfbench::AppendTag;
using perfbench::KeyTag;
using perfbench::LogLinearHistogram;

void test_histogram_buckets() {
  // Every value lands in a bucket whose bounds hold it and whose width
  // is at most 1/32 of its lower bound.
  for (std::uint64_t v : {0ULL, 1ULL, 31ULL, 32ULL, 33ULL, 1000ULL,
                          123456789ULL, (1ULL << 40) + 7, ~0ULL}) {
    const std::size_t i = LogLinearHistogram::index(v);
    CHECK(i < LogLinearHistogram::kBuckets);
    CHECK(LogLinearHistogram::lower(i) <= v);
    if (i + 1 < LogLinearHistogram::kBuckets) {
      const std::uint64_t hi = LogLinearHistogram::lower(i + 1);
      CHECK(v < hi);
      CHECK(hi - LogLinearHistogram::lower(i) <=
            std::max<std::uint64_t>(1, LogLinearHistogram::lower(i) / 32));
    }
  }
}

void test_histogram_percentiles() {
  // 1..100000 ns uniformly: p50 ≈ 50000, p99 ≈ 99000, within the bucket
  // resolution of ~3%.
  LogLinearHistogram a;
  LogLinearHistogram b;
  for (std::uint64_t v = 1; v <= 100000; ++v) (v % 2 ? a : b).record(v);
  a.merge(b);
  CHECK(a.count() == 100000);
  CHECK(near(a.percentile(0.50), 50000, 0.03));
  CHECK(near(a.percentile(0.99), 99000, 0.03));
  CHECK(near(a.percentile(1.0), 100000, 0.03));
  // Small values are exact.
  LogLinearHistogram small;
  for (int i = 0; i < 99; ++i) small.record(7);
  small.record(20);
  CHECK(small.percentile(0.5) == 7);
  CHECK(small.percentile(0.99) == 7);
  CHECK(small.percentile(1.0) == 20);
  CHECK(LogLinearHistogram().percentile(0.5) == 0);
}

rcua::obs::TraceEvent ev(const char* name, char phase, std::uint64_t ts,
                         std::uint64_t arg = 0, std::uint32_t tid = 1) {
  rcua::obs::TraceEvent e;
  e.name = name;
  e.cat = "bench";
  e.phase = phase;
  e.ts_ns = ts;
  e.arg = arg;
  e.tid = tid;
  return e;
}

void test_span_self_time() {
  // outer [0,100) holds child [10,40) and child [50,60): self 60. An
  // orphan 'E' (its 'B' lost to ring overflow) is ignored.
  const std::vector<rcua::obs::TraceEvent> events = {
      ev("orphan", 'E', 0),      ev("outer", 'B', 0, 1),
      ev("child", 'B', 10),      ev("child", 'E', 40),
      ev("child", 'B', 50),      ev("child", 'E', 60),
      ev("outer", 'E', 100),     ev("other", 'B', 5, 0, 2),
      ev("other", 'E', 8, 0, 2),
  };
  const auto spans = perfbench::pair_spans(events);
  CHECK(spans.size() == 4);
  for (const auto& s : spans) {
    if (s.name == "outer") {
      CHECK(s.dur_ns == 100);
      CHECK(s.child_ns == 40);
      CHECK(s.self_ns() == 60);
    }
    if (s.name == "other") CHECK(s.tid == 2 && s.dur_ns == 3);
  }
}

void test_ladder_arithmetic() {
  // Two reps per rung; per-call = duration / calls, median over reps;
  // a layer's self time is its rung minus the rung below.
  const std::vector<rcua::obs::TraceEvent> events = {
      ev("ladder.core.view_read", 'B', 0, 1000),
      ev("ladder.core.view_read", 'E', 10000),  // 10 ns/call
      ev("ladder.core.read", 'B', 20000, 1000),
      ev("ladder.core.read", 'E', 80000),  // 60 ns/call
      ev("ladder.core.view_read", 'B', 100000, 1000),
      ev("ladder.core.view_read", 'E', 112000),  // 12 ns/call
      ev("ladder.core.read", 'B', 200000, 1000),
      ev("ladder.core.read", 'E', 264000),  // 64 ns/call
      ev("unrelated", 'B', 300000, 5),
      ev("unrelated", 'E', 400000),
  };
  const auto rungs =
      perfbench::rung_ns_per_call(perfbench::pair_spans(events), "ladder.");
  CHECK(rungs.size() == 2);
  CHECK(near(rungs.at("core.view_read"), 11.0, 1e-12));
  CHECK(near(rungs.at("core.read"), 62.0, 1e-12));
  CHECK(near(perfbench::layer_self_ns(rungs, "core.read", "core.view_read"),
             51.0, 1e-12));
  CHECK(perfbench::layer_self_ns(rungs, "core.read", "missing") == 0.0);
  CHECK(perfbench::median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(perfbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_key_oracle() {
  CHECK(KeyTag::ok(5, KeyTag::make(5, 0)));
  CHECK(KeyTag::ok(5, KeyTag::make(5, 123456789)));  // any stamp
  CHECK(!KeyTag::ok(5, KeyTag::make(6, 0)));         // foreign value
  CHECK(!KeyTag::ok(0, 0));                          // unfilled slot
  std::vector<std::uint64_t> vals;
  for (std::uint64_t k = 100; k < 200; ++k) vals.push_back(KeyTag::make(k, k));
  CHECK(KeyTag::count_bad(100, vals) == 0);
  vals[17] = KeyTag::make(3, 0);  // forced mismatch
  CHECK(KeyTag::count_bad(100, vals) == 1);
}

void test_append_oracle() {
  // Three producers interleaved, each in sequence order.
  std::vector<std::uint64_t> vals;
  for (std::uint64_t seq = 0; seq < 50; ++seq) {
    for (std::uint64_t p = 0; p < 3; ++p) {
      vals.push_back(AppendTag::make(p, seq));
    }
  }
  CHECK(AppendTag::check_all(vals, 3, 50) == 0);
  CHECK(AppendTag::check_window(
            std::span<const std::uint64_t>(vals).subspan(31, 40), 3, 50) == 0);
  // A lost element, a duplicate and a foreign value are all caught.
  auto lost = vals;
  lost.erase(lost.begin() + 10);
  CHECK(AppendTag::check_all(lost, 3, 50) != 0);
  CHECK(AppendTag::check_window(lost, 3, 50) != 0);
  auto dup = vals;
  dup[12] = dup[9];
  CHECK(AppendTag::check_all(dup, 3, 50) != 0);
  auto foreign = vals;
  foreign[20] = AppendTag::make(7, 0);
  // The foreign value, and the gap it leaves in producer 2's seqs.
  CHECK(AppendTag::check_window(foreign, 3, 50) == 2);
  auto zero = vals;
  zero[0] = 0;
  CHECK(AppendTag::check_all(zero, 3, 50) != 0);
}

}  // namespace

int main() {
  test_histogram_buckets();
  test_histogram_percentiles();
  test_span_self_time();
  test_ladder_arithmetic();
  test_key_oracle();
  test_append_oracle();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench tests: ok\n");
  return 0;
}

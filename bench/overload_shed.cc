// Overload shedding under open-loop Poisson arrivals: the metric that
// matters for the 20-50 ms ad-tech decision window is not closed-loop q/s
// but what happens when offered load EXCEEDS capacity — a robust server
// sheds the excess in O(1) and keeps answering the admitted stream inside
// its budget ("shed, don't collapse"); a fragile one lets the queue grow
// until every answer is late.
//
// Method: estimate capacity with a closed-loop pass through
// ConcurrentServer::AskAsync — the entry point the load is offered
// through, so "1x" means the rate the async path actually sustains — after
// an untimed pass that fills the prepared-query cache. Then replay the
// 1080-question paper stream through AskAsync at 0.5x/1x/2x/4x the estimate
// with exponential inter-arrivals (deterministic RNG). Every request
// carries deadline = scheduled-arrival + budget; arrivals never wait for
// completions (open loop). Per load level: p50/p99/p999 completion latency,
// goodput (answers inside the budget / wall time), shed and expiry rates.
//
// Gates (exit non-zero on violation; the CI smoke step relies on this):
//   * goodput at 2x offered load >= 70% of goodput at 1x
//   * p99 latency of answered requests at 2x within the budget
//
// Emits BENCH_overload_shed.json.
//
// Usage: overload_shed [--quick] [budget_ms]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "core/ask_types.h"
#include "eval/experiments.h"
#include "serve/concurrent_server.h"

namespace {

using cqads::Deadline;
using Clock = Deadline::Clock;

struct LevelResult {
  double multiplier = 0.0;
  double offered_qps = 0.0;
  std::size_t requests = 0;
  std::size_t answered = 0;   ///< ok, full work
  std::size_t degraded = 0;   ///< ok, partials cut short
  std::size_t in_budget = 0;  ///< ok completions inside the budget
  std::size_t deadline_exceeded = 0;
  std::size_t shed = 0;
  std::size_t errors = 0;
  double wall_secs = 0.0;
  double goodput_qps = 0.0;
  double p50_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0;  ///< ok completions
};

double Percentile(std::vector<double>* sorted_in_place, double q) {
  std::vector<double>& v = *sorted_in_place;
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Shared state of one closed-loop run. Every callback holds it by
/// shared_ptr, so callbacks still unwinding after the waiter woke never
/// touch freed memory.
struct ClosedLoop {
  const cqads::serve::ConcurrentServer* server = nullptr;
  const std::vector<std::string>* stream = nullptr;
  std::size_t total = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<std::size_t> failed{0};
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Clock::time_point end;
};

/// Issues the loop's next question; its completion issues the one after.
void IssueNext(const std::shared_ptr<ClosedLoop>& loop) {
  using namespace cqads;
  const std::size_t k = loop->next.fetch_add(1, std::memory_order_relaxed);
  if (k >= loop->total) return;
  loop->server->AskAsync(
      (*loop->stream)[k % loop->stream->size()], Deadline::Infinite(),
      [loop](Result<core::AskResult> r) {
        if (!r.ok()) loop->failed.fetch_add(1, std::memory_order_relaxed);
        IssueNext(loop);
        if (loop->completed.fetch_add(1) + 1 == loop->total) {
          std::lock_guard<std::mutex> lock(loop->mu);
          loop->end = Clock::now();
          loop->done = true;
          loop->cv.notify_one();
        }
      });
}

/// Closed-loop serving rate through AskAsync: `in_flight` requests stay
/// outstanding — each completion issues the next question of the stream —
/// until `total` have completed. No deadlines, so nothing is shed or
/// expires; returns completions per second and counts non-ok outcomes.
double ClosedLoopAsyncQps(const cqads::serve::ConcurrentServer& server,
                          const std::vector<std::string>& stream,
                          std::size_t total, std::size_t in_flight,
                          std::size_t* failures) {
  auto loop = std::make_shared<ClosedLoop>();
  loop->server = &server;
  loop->stream = &stream;
  loop->total = total;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < std::min(in_flight, total); ++i) {
    IssueNext(loop);
  }
  std::unique_lock<std::mutex> lock(loop->mu);
  loop->cv.wait(lock, [&] { return loop->done; });
  *failures = loop->failed.load();
  const double secs = std::chrono::duration<double>(loop->end - start).count();
  return secs > 0.0 ? static_cast<double>(total) / secs : 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cqads;
  bool quick = false;
  double budget_ms = 25.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      budget_ms = std::atof(argv[i]);
    }
  }
  const auto budget = std::chrono::microseconds(
      static_cast<std::int64_t>(budget_ms * 1000.0));

  auto world = bench::BuildPaperWorld();
  const core::CqadsEngine& engine = world->engine();

  auto generated = eval::GenerateSurveyQuestions(*world, 80, 40, 990);
  std::vector<std::string> stream;
  for (const auto& [domain, qs] : generated) {
    for (const auto& q : qs) stream.push_back(q.text);
  }
  const std::size_t passes = quick ? 1 : 3;

  // Capacity estimate: closed-loop AskAsync serving over the stream, two
  // requests in flight per worker (enough to keep every worker busy, few
  // enough that the queue never builds), after an untimed pass that fills
  // the prepared cache. The same questions then serve every open-loop
  // level, cache warm throughout.
  serve::ConcurrentServer::Options options;
  options.num_workers = 4;
  options.enable_cache = true;
  // Admission bound: a full queue must drain well inside one budget at
  // estimated capacity, so admitted requests keep their deadline reachable.
  // Sized after the capacity run below; start unbounded for the estimate.
  serve::ConcurrentServer warm_server(&engine, options);
  (void)warm_server.AskBatch(stream);  // cache fill, untimed
  std::size_t warm_failures = 0;
  const double capacity_qps =
      ClosedLoopAsyncQps(warm_server, stream, stream.size() * passes,
                         2 * options.num_workers, &warm_failures);

  const std::size_t max_queue = std::max<std::size_t>(
      4, static_cast<std::size_t>(capacity_qps * budget_ms / 1000.0 * 0.5));
  options.max_queue = max_queue;
  serve::ConcurrentServer server(&engine, options);
  (void)server.AskBatch(stream);  // fill THIS server's cache too

  bench::PrintHeader("overload shedding (open-loop Poisson arrivals)");
  std::printf("stream: %zu unique questions x %zu passes/level, budget %.1f "
              "ms, est. capacity %.0f q/s, max_queue %zu, workers %zu\n",
              stream.size(), passes, budget_ms, capacity_qps, max_queue,
              options.num_workers);
  bench::PrintRule();
  std::printf("%6s %12s %9s %9s %9s %7s %7s %9s %9s %9s\n", "load",
              "offered q/s", "goodput", "answered", "degraded", "dlx",
              "shed", "p50 ms", "p99 ms", "p999 ms");
  bench::PrintRule();

  const std::vector<double> multipliers = {0.5, 1.0, 2.0, 4.0};
  std::vector<LevelResult> levels;

  for (double mult : multipliers) {
    LevelResult level;
    level.multiplier = mult;
    level.offered_qps = mult * capacity_qps;
    level.requests = stream.size() * passes;

    // Pre-draw the arrival schedule (exponential inter-arrivals,
    // deterministic seed per level) so the driver loop does no RNG work.
    Rng rng(0xDEADBEEF + static_cast<std::uint64_t>(mult * 8.0));
    std::vector<Clock::duration> schedule(level.requests);
    double t_secs = 0.0;
    for (std::size_t k = 0; k < level.requests; ++k) {
      const double u = rng.UniformReal(1e-12, 1.0);
      t_secs += -std::log(u) / level.offered_qps;
      schedule[k] = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(t_secs));
    }

    // Per-request outcome slots: each callback writes its own index; the
    // completion counter's final load synchronizes the reads below.
    enum class Outcome : char { kPending, kAnswered, kDegraded, kDeadline,
                                kShed, kError };
    std::vector<Outcome> outcomes(level.requests, Outcome::kPending);
    std::vector<double> latency_ms(level.requests, 0.0);
    std::atomic<std::size_t> completed{0};

    const auto start = Clock::now();
    for (std::size_t k = 0; k < level.requests; ++k) {
      const auto arrival = start + schedule[k];
      std::this_thread::sleep_until(arrival);  // no-op when behind: open loop
      const Deadline deadline = Deadline::At(arrival + budget);
      server.AskAsync(
          stream[k % stream.size()], deadline,
          [&outcomes, &latency_ms, &completed, k, arrival](
              Result<core::AskResult> r) {
            latency_ms[k] = std::chrono::duration<double, std::milli>(
                                Clock::now() - arrival)
                                .count();
            if (r.ok()) {
              outcomes[k] = r.value().degraded ? Outcome::kDegraded
                                               : Outcome::kAnswered;
            } else if (r.status().code() == StatusCode::kDeadlineExceeded) {
              outcomes[k] = Outcome::kDeadline;
            } else if (r.status().code() == StatusCode::kOverloaded) {
              outcomes[k] = Outcome::kShed;
            } else {
              outcomes[k] = Outcome::kError;
            }
            completed.fetch_add(1, std::memory_order_release);
          });
    }
    while (completed.load(std::memory_order_acquire) < level.requests) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    level.wall_secs =
        std::chrono::duration<double>(Clock::now() - start).count();

    std::vector<double> ok_latencies;
    for (std::size_t k = 0; k < level.requests; ++k) {
      switch (outcomes[k]) {
        case Outcome::kAnswered:
          ++level.answered;
          break;
        case Outcome::kDegraded:
          ++level.degraded;
          break;
        case Outcome::kDeadline:
          ++level.deadline_exceeded;
          break;
        case Outcome::kShed:
          ++level.shed;
          break;
        default:
          ++level.errors;
          break;
      }
      if (outcomes[k] == Outcome::kAnswered ||
          outcomes[k] == Outcome::kDegraded) {
        ok_latencies.push_back(latency_ms[k]);
        if (latency_ms[k] <= budget_ms) ++level.in_budget;
      }
    }
    level.goodput_qps = level.wall_secs > 0.0
                            ? static_cast<double>(level.in_budget) /
                                  level.wall_secs
                            : 0.0;
    {
      std::vector<double> tmp = ok_latencies;
      level.p50_ms = Percentile(&tmp, 0.50);
    }
    {
      std::vector<double> tmp = ok_latencies;
      level.p99_ms = Percentile(&tmp, 0.99);
    }
    level.p999_ms = Percentile(&ok_latencies, 0.999);

    std::printf("%5.1fx %12.0f %8.0f/s %9zu %9zu %7zu %7zu %9.2f %9.2f "
                "%9.2f\n",
                mult, level.offered_qps, level.goodput_qps, level.answered,
                level.degraded, level.deadline_exceeded, level.shed,
                level.p50_ms, level.p99_ms, level.p999_ms);
    levels.push_back(level);
  }
  bench::PrintRule();

  const auto find_level = [&](double mult) -> const LevelResult& {
    for (const auto& l : levels) {
      if (l.multiplier == mult) return l;
    }
    return levels.front();
  };
  const LevelResult& at1 = find_level(1.0);
  const LevelResult& at2 = find_level(2.0);
  const double goodput_ratio =
      at1.goodput_qps > 0.0 ? at2.goodput_qps / at1.goodput_qps : 0.0;

  auto server_stats = server.stats();
  bench::BenchJson json("overload_shed");
  json.Add("budget_ms", budget_ms);
  json.Add("capacity_qps", capacity_qps);
  json.Add("max_queue", max_queue);
  json.Add("passes", passes);
  json.Add("warm_failures", warm_failures);
  for (const auto& l : levels) {
    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "x%.1f_", l.multiplier);
    json.Add(std::string(prefix) + "offered_qps", l.offered_qps);
    json.Add(std::string(prefix) + "goodput_qps", l.goodput_qps);
    json.Add(std::string(prefix) + "answered", l.answered);
    json.Add(std::string(prefix) + "degraded", l.degraded);
    json.Add(std::string(prefix) + "deadline_exceeded", l.deadline_exceeded);
    json.Add(std::string(prefix) + "shed", l.shed);
    json.Add(std::string(prefix) + "errors", l.errors);
    json.Add(std::string(prefix) + "p50_ms", l.p50_ms);
    json.Add(std::string(prefix) + "p99_ms", l.p99_ms);
    json.Add(std::string(prefix) + "p999_ms", l.p999_ms);
  }
  json.Add("goodput_2x_over_1x", goodput_ratio);
  json.Add("expired_in_queue",
           static_cast<std::size_t>(server_stats.expired_in_queue));
  json.Add("max_queue_age_ms", server_stats.max_queue_age_micros / 1000.0);
  json.Write();

  bool fail = false;
  if (warm_failures > 0) {
    std::printf("FAIL: %zu requests errored during the capacity run\n",
                warm_failures);
    fail = true;
  }
  if (goodput_ratio < 0.70) {
    std::printf("FAIL: goodput at 2x load is %.0f%% of 1x (gate: >= 70%%) — "
                "the server is collapsing under overload, not shedding\n",
                goodput_ratio * 100.0);
    fail = true;
  }
  if (at2.p99_ms > budget_ms) {
    std::printf("FAIL: p99 of answered requests at 2x load is %.2f ms, over "
                "the %.1f ms budget — admitted requests are being served "
                "late\n",
                at2.p99_ms, budget_ms);
    fail = true;
  }
  if (!fail) {
    std::printf("overload gates pass: goodput(2x)/goodput(1x) = %.2f, "
                "answered p99 at 2x = %.2f ms (budget %.1f ms)\n",
                goodput_ratio, at2.p99_ms, budget_ms);
  }
  return fail ? 1 : 0;
}

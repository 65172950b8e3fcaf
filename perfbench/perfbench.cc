// perfbench: the CQAds serving benchmark's input generator and driver.
//
//   perfbench gen --workload W --seed N --seconds S --dir D [--smoke]
//       writes W's inputs into D: the engine snapshot, the question list,
//       the request order, and (fresh_ingest) the write script and the
//       expected post-compaction answers. Same arguments, same bytes.
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 --daemon <cqads_serverd>
//       serves D's snapshot in the shipped configuration, checks every
//       answer against in-process references, and prints one JSON line:
//       {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. With
//       --trace 1 it also writes D/spans.tsv (see SpanLog).
//
// Workloads (perfbench/README.md says why each exists and what each
// metric means):
//   survey_wire   Zipf repeats of ~3.5k survey questions, "ask" through the
//                 cqads_serverd daemon over a Unix socket, closed loop,
//                 4 connections x 32 in flight.
//   fresh_ingest  9000 distinct questions cycling past the prepared cache,
//                 closed loop through ConcurrentServer::AskAsync with 4 in
//                 flight, one writer thread ingesting and compacting.
//   rank_sweep    partial-ranking questions over a clustered 150k-row cars
//                 fleet, "ask_in_domain" through the daemon, one in flight.
// Half of each run is that load; the other half measures service time: one
// request at a time through the same entry point, costed in the CPU time of
// every serving thread.
//
// The served configuration is cqads_serverd's default: 4 workers, prepared
// cache on, no budget, no max_queue, engine options as saved.
#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/socket_io.h"
#include "core/ask_types.h"
#include "core/cqads_engine.h"
#include "core/pipeline.h"
#include "datagen/ads_generator.h"
#include "datagen/domain_spec.h"
#include "datagen/world.h"
#include "db/schema.h"
#include "db/table.h"
#include "eval/experiments.h"
#include "qlog/ti_matrix.h"
#include "serve/concurrent_server.h"
#include "serve/net/net_client.h"
#include "serve/net/net_server.h"
#include "serve/net/protocol.h"
#include "snapshot/xxhash64.h"

namespace {

using namespace cqads;
using Clock = std::chrono::steady_clock;
namespace wire = cqads::serve::net;

// ------------------------------------------------------------ parameters
//
// The traffic values below (write rate, compaction interval, concurrency,
// Zipf exponent) are assumptions: the paper's query logs are proprietary
// and the repo has no trace of real ads-question traffic to derive them
// from. perfbench/README.md gives the reason for each and how much the
// gated metrics move when it changes.

/// The two domains fresh_ingest writes into; reads of the other six are
/// checked response by response.
const char* const kWrittenDomains[] = {"cars", "cs_jobs"};
constexpr double kWriteRate = 200.0;         ///< IngestAd calls per second
constexpr std::size_t kCompactEvery = 250;   ///< ingests per domain
constexpr std::size_t kClosedLoopDepth = 4;  ///< fresh_ingest outstanding
constexpr std::size_t kFreshDistinct = 9000; ///< > 2x the 4096-entry cache
constexpr std::size_t kRankRows = 150000;
constexpr std::size_t kRankQuestions = 400;
const char* const kRankSetupQuestion = "honda civic 9000 dollars";

constexpr std::size_t kConns = 4;          ///< survey_wire connections
constexpr std::size_t kWireDepth = 32;     ///< survey_wire in flight per connection
/// Zipf exponent of survey_wire's popularity law: below 1, as web request
/// popularity measures, and low enough that which questions a seed makes
/// popular barely moves the mean cost of a request.
constexpr double kZipfS = 0.8;
constexpr double kFailedLatencyMs = 1e9;   ///< a failure misses any limit
constexpr int kSetups = 5;                 ///< set-ups timed per run
/// Share of a run under load; the rest measures service time.
constexpr double kLoadedShare = 0.5;
/// CPU times are reported at a reference machine speed: scaled by
/// kCalibrationMs over the CPU time CalibrationMs() took in the same phase
/// (see Calibrator).
constexpr double kCalibrationMs = 8.0;
constexpr double kCalibrationEveryS = 0.5;
/// Service times are scaled by kHandoffUs over the median CPU time of a
/// Handoff, sampled kHandoffsPerSample times every kCalibrationEveryS.
constexpr double kHandoffUs = 25.0;
constexpr int kHandoffsPerSample = 32;
constexpr int kServerNice = 5;             ///< see Daemon

// ------------------------------------------------------------ utilities

/// The running daemon child, if any: Die stops it before exiting.
pid_t g_daemon_pid = -1;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  if (g_daemon_pid > 0) {
    ::kill(g_daemon_pid, SIGKILL);
    ::waitpid(g_daemon_pid, nullptr, 0);
  }
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t NanosSince(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0).count();
}

/// Nearest-rank percentile (q in [0,1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  rank = std::max<std::size_t>(rank, 1);
  return v[std::min(rank, v.size()) - 1];
}

std::uint64_t Digest(const std::string& s) {
  return snapshot::XxHash64(s.data(), s.size());
}

std::uint64_t AnswerDigest(const core::AskResult& result) {
  return Digest(core::CanonicalAskResultString(result));
}

/// SplitMix64: the benchmark's own seeded stream (arrival gaps, Zipf).
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double Unit() {
    return static_cast<double>((Next() >> 11) + 1) * (1.0 / 9007199254740992.0);
  }

 private:
  std::uint64_t state_;
};

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void WriteLines(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& line : lines) out << line << '\n';
  if (!out) Die("cannot write " + path);
}

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t tab = line.find('\t', start);
    out.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return out;
    start = tab + 1;
  }
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// A record as one tab-separated line: N (null), I<int>, R<real>, T<text>.
std::string EncodeRecord(const db::Record& record) {
  std::string out;
  for (std::size_t i = 0; i < record.size(); ++i) {
    if (i > 0) out += '\t';
    const db::Value& v = record[i];
    char buf[40];
    if (v.is_null()) {
      out += 'N';
    } else if (v.is_int()) {
      std::snprintf(buf, sizeof(buf), "I%lld",
                    static_cast<long long>(std::llround(v.AsDouble())));
      out += buf;
    } else if (v.is_real()) {
      std::snprintf(buf, sizeof(buf), "R%.17g", v.AsDouble());
      out += buf;
    } else {
      out += 'T';
      out += v.text();
    }
  }
  return out;
}

db::Record DecodeRecord(const std::vector<std::string>& fields,
                        std::size_t first) {
  db::Record record;
  for (std::size_t i = first; i < fields.size(); ++i) {
    const std::string& f = fields[i];
    if (f.empty()) Die("empty record field");
    switch (f[0]) {
      case 'N': record.push_back(db::Value::Null()); break;
      case 'I': record.push_back(db::Value::Int(std::atoll(f.c_str() + 1))); break;
      case 'R': record.push_back(db::Value::Real(std::strtod(f.c_str() + 1, nullptr))); break;
      case 'T': record.push_back(db::Value::Text(f.substr(1))); break;
      default: Die("bad record field: " + f);
    }
  }
  return record;
}

/// Peak resident set (VmHWM) of the process whose /proc status file is
/// `status_path`, MiB.
double PeakRssMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  Die("cannot read VmHWM from " + status_path);
}

/// Waits, for at most 20 ms, until no thread of process `pid` other than
/// `except` is running or runnable (state R in /proc/<pid>/task/*/stat). A
/// process CPU clock read from another thread leaves out what a running
/// thread has used since it was last scheduled in, until it stops; reading
/// it once the serving threads sleep gives a request its whole cost.
void AwaitThreadsIdle(pid_t pid, pid_t except) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  const auto give_up = Clock::now() + std::chrono::milliseconds(20);
  char buf[512];
  for (bool busy = true; busy && Clock::now() < give_up;) {
    busy = false;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) return;
    while (const dirent* e = ::readdir(d)) {
      if (e->d_name[0] == '.' || std::atoi(e->d_name) == except) continue;
      const int fd = ::open((dir + "/" + e->d_name + "/stat").c_str(), O_RDONLY);
      if (fd < 0) continue;
      const ssize_t n = ::read(fd, buf, sizeof(buf) - 1);
      ::close(fd);
      if (n <= 0) continue;
      buf[n] = '\0';
      const char* paren = std::strrchr(buf, ')');  // "tid (comm) S ..."
      if (paren != nullptr && paren[1] == ' ' && paren[2] == 'R') {
        busy = true;
        break;
      }
    }
    ::closedir(d);
  }
}

pid_t ThisThreadId() { return static_cast<pid_t>(::syscall(SYS_gettid)); }

std::uint64_t ClockNs(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// The calibration work's data: a hash map and a vector of random words.
const std::pair<std::unordered_map<std::uint64_t, std::uint64_t>, std::vector<std::uint64_t>>*
CalibrationData() {
  static const auto* data = [] {
    auto* d = new std::pair<std::unordered_map<std::uint64_t, std::uint64_t>,
                            std::vector<std::uint64_t>>();
    SplitMix rng(7);
    for (int i = 0; i < 20000; ++i) d->first.emplace(rng.Next(), rng.Next());
    for (int i = 0; i < 4096; ++i) d->second.push_back(rng.Next());
    return d;
  }();
  return data;
}

/// A fixed piece of CPU work that is no part of CQAds: hash-map probes, a
/// sort and string hashing. Its CPU time tracks how fast this machine runs
/// code right now; other tenants' load moves it by tens of percent.
double CalibrationMs() {
  const auto* data = CalibrationData();
  const std::uint64_t t0 = ClockNs(CLOCK_THREAD_CPUTIME_ID);
  std::uint64_t acc = 0;
  SplitMix rng(11);
  for (int i = 0; i < 100000; ++i) {
    auto it = data->first.find(rng.Next() % 2 == 0 ? rng.Next() : acc);
    acc += it == data->first.end() ? 1 : it->second;
  }
  for (int r = 0; r < 8; ++r) {
    std::vector<std::uint64_t> v = data->second;
    std::sort(v.begin(), v.end());
    acc += v[r];
  }
  std::string text(64, 'a');
  for (int i = 0; i < 20000; ++i) {
    text[i % 64] = static_cast<char>('a' + (acc + i) % 26);
    acc += Digest(text);
  }
  if (acc == 42) std::fprintf(stderr, " ");  // keeps the work observable
  return static_cast<double>(ClockNs(CLOCK_THREAD_CPUTIME_ID) - t0) / 1e6;
}

bool SafeLine(const std::string& s) {
  return !s.empty() && s.find('\n') == std::string::npos &&
         s.find('\t') == std::string::npos;
}

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string dir;
  std::string daemon;  ///< cqads_serverd binary (wire workloads)
};

// ------------------------------------------------------------ spans

/// In-memory span log. A span is (request id, span id, parent span id,
/// name, start, end) with times in ns from the run's epoch; parent 0 means
/// a root. Written to spans.tsv at the end of a traced run; run.py derives
/// self times from it (a span's duration minus the part of its interval
/// its children cover).
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  std::uint64_t Add(std::uint64_t request, std::uint64_t parent,
                    const char* name, Clock::time_point start,
                    Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{request, ++next_id_, parent, name,
                          NanosSince(epoch_, start), NanosSince(epoch_, end)});
    return next_id_;
  }

  void Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path, std::ios::trunc);
    out << "request\tspan\tparent\tname\tstart_ns\tend_ns\n";
    for (const Span& s : spans_) {
      out << s.request << '\t' << s.id << '\t' << s.parent << '\t' << s.name
          << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
    if (!out) Die("cannot write " + path);
  }

 private:
  struct Span {
    std::uint64_t request, id, parent;
    const char* name;
    std::int64_t start_ns, end_ns;
  };
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 0;
};

// ------------------------------------------------------------ generation

std::unique_ptr<datagen::World> PaperWorld() {
  return Must(datagen::World::Build(datagen::WorldOptions()), "world build");
}

/// Distinct generated survey questions (all eight domains) that the engine
/// answers, in generation order, until `target` or `max_rounds` rounds.
std::vector<std::pair<std::string, std::string>> SurveyQuestions(
    const datagen::World& world, std::uint64_t seed, std::size_t car_count,
    std::size_t per_other, std::size_t target, int max_rounds) {
  std::vector<std::pair<std::string, std::string>> out;  // (domain, text)
  std::set<std::string> seen;
  for (int round = 0; round < max_rounds && out.size() < target; ++round) {
    auto by_domain = eval::GenerateSurveyQuestions(
        world, car_count, per_other, seed * 1000003ULL + round);
    for (const auto& [domain, qs] : by_domain) {
      for (const auto& q : qs) {
        if (out.size() >= target) break;
        if (!SafeLine(q.text) || !seen.insert(q.text).second) continue;
        if (!world.engine().Ask(q.text).ok()) continue;
        out.emplace_back(domain, q.text);
      }
    }
  }
  return out;
}

/// Deterministic Fisher-Yates over the benchmark's own stream.
template <typename T>
void Shuffle(std::vector<T>* v, SplitMix* rng) {
  for (std::size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Next() % i]);
  }
}

/// `n` draws of question indices from a Zipf law (exponent kZipfS) over a
/// seeded popularity order of `distinct` questions.
std::vector<std::uint32_t> ZipfSequence(std::size_t distinct, std::size_t n,
                                        std::uint64_t seed) {
  SplitMix rng(seed ^ 0x5A17F00DULL);
  std::vector<std::uint32_t> rank_to_question(distinct);
  for (std::size_t i = 0; i < distinct; ++i) rank_to_question[i] = i;
  Shuffle(&rank_to_question, &rng);
  std::vector<double> cdf(distinct);
  double total = 0.0;
  for (std::size_t r = 0; r < distinct; ++r) {
    total += std::pow(static_cast<double>(r + 1), -kZipfS);
    cdf[r] = total;
  }
  std::vector<std::uint32_t> out(n);
  for (auto& q : out) {
    const double u = rng.Unit() * total;
    const std::size_t r = std::min<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        distinct - 1);
    q = rank_to_question[r];
  }
  return out;
}

std::vector<std::string> QuestionLines(
    const std::vector<std::pair<std::string, std::string>>& qs) {
  std::vector<std::string> lines;
  for (const auto& [domain, text] : qs) lines.push_back(domain + "\t" + text);
  return lines;
}

void GenSurveyWire(const Args& a) {
  auto world = PaperWorld();
  MustOk(world->engine().SaveSnapshot(a.dir + "/engine.snap"), "save snapshot");
  const auto qs = SurveyQuestions(*world, a.seed, 80, 40, a.smoke ? 400 : 3600,
                                  a.smoke ? 2 : 10);
  WriteLines(a.dir + "/questions.tsv", QuestionLines(qs));
  std::vector<std::string> seq;
  for (std::uint32_t q : ZipfSequence(qs.size(), a.smoke ? 20000 : 400000, a.seed)) {
    seq.push_back(std::to_string(q));
  }
  WriteLines(a.dir + "/requests.txt", seq);
}

void GenFreshIngest(const Args& a) {
  auto world = PaperWorld();
  MustOk(world->engine().SaveSnapshot(a.dir + "/engine.snap"), "save snapshot");
  const std::size_t target = a.smoke ? 600 : kFreshDistinct;
  auto qs = SurveyQuestions(*world, a.seed, 400, 200, target, 40);
  if (!a.smoke && qs.size() < 2 * 4096) Die("too few distinct questions");
  SplitMix rng(a.seed ^ 0xF4E5ULL);
  Shuffle(&qs, &rng);
  WriteLines(a.dir + "/questions.tsv", QuestionLines(qs));

  // Write script: new ads for the written domains, alternating, paced at
  // kWriteRate over 90% of the loaded half of the run; CompactDomain after
  // every kCompactEvery ingests into a domain.
  const std::size_t n_writes =
      static_cast<std::size_t>(kWriteRate * 0.9 * kLoadedShare * a.seconds);
  const std::size_t n_domains = std::size(kWrittenDomains);
  std::vector<db::Table> fresh_ads;
  for (std::size_t d = 0; d < n_domains; ++d) {
    const datagen::DomainSpec* spec = datagen::FindDomainSpec(kWrittenDomains[d]);
    if (spec == nullptr) Die("unknown domain");
    Rng ads_rng(a.seed * 7919 + d);
    fresh_ads.push_back(Must(
        datagen::GenerateAds(*spec, n_writes / n_domains + 1, &ads_rng), "ads"));
  }
  std::vector<std::string> script;
  std::vector<std::vector<db::Record>> written(n_domains);
  for (std::size_t i = 0; i < n_writes; ++i) {
    const std::size_t d = i % n_domains;
    db::Record r = fresh_ads[d].row(written[d].size());
    script.push_back(std::string("I\t") + kWrittenDomains[d] + "\t" +
                     EncodeRecord(r));
    written[d].push_back(std::move(r));
    if (written[d].size() % kCompactEvery == 0) {
      script.push_back(std::string("C\t") + kWrittenDomains[d]);
    }
  }
  WriteLines(a.dir + "/writes.tsv", script);

  // The final state's reference: an engine rebuilt from scratch on each
  // written domain's base rows plus everything the script ingests. The
  // records are decoded back from their script form so both sides start
  // from identical values.
  std::vector<db::Record> replayed[std::size(kWrittenDomains)];
  for (const auto& line : script) {
    const auto f = SplitTabs(line);
    if (f[0] != "I") continue;
    for (std::size_t d = 0; d < n_domains; ++d) {
      if (f[1] == kWrittenDomains[d]) replayed[d].push_back(DecodeRecord(f, 2));
    }
  }
  core::CqadsEngine twin;
  twin.SetWordSimilarity(&world->ws_matrix());
  std::vector<std::unique_ptr<db::Table>> twin_tables;
  for (std::size_t d = 0; d < n_domains; ++d) {
    const db::Table* base = world->table(kWrittenDomains[d]);
    auto t = std::make_unique<db::Table>(base->schema());
    for (db::RowId r = 0; r < base->num_rows(); ++r) {
      MustOk(t->Insert(base->row(r)).status(), "twin insert");
    }
    for (auto& rec : replayed[d]) MustOk(t->Insert(rec).status(), "twin insert");
    t->BuildIndexes();
    MustOk(twin.AddDomain(t.get(), qlog::TiMatrix::Build(
                                       *world->query_log(kWrittenDomains[d]))),
           "twin add domain");
    twin_tables.push_back(std::move(t));
  }
  std::vector<std::string> final_lines;
  for (const auto& [domain, text] : qs) {
    bool is_written = false;
    for (const char* w : kWrittenDomains) is_written |= domain == w;
    if (!is_written || final_lines.size() >= (a.smoke ? 40u : 200u)) continue;
    auto r = twin.AskInDomain(domain, text);
    if (!r.ok()) continue;
    final_lines.push_back(domain + "\t" + text + "\t" + Hex(AnswerDigest(r.value())));
  }
  WriteLines(a.dir + "/final.tsv", final_lines);
}

db::Schema FleetSchema() {
  using db::AttrType;
  using db::Attribute;
  using db::DataKind;
  auto cat = [](std::string name, AttrType t,
                std::vector<std::string> aliases = {}) {
    Attribute a;
    a.name = std::move(name);
    a.attr_type = t;
    a.data_kind = DataKind::kCategorical;
    a.aliases = std::move(aliases);
    return a;
  };
  auto num = [](std::string name, std::vector<std::string> units,
                std::vector<std::string> aliases) {
    Attribute a;
    a.name = std::move(name);
    a.attr_type = AttrType::kTypeIII;
    a.data_kind = DataKind::kNumeric;
    a.unit_keywords = std::move(units);
    a.aliases = std::move(aliases);
    return a;
  };
  db::Attribute features;
  features.name = "features";
  features.attr_type = AttrType::kTypeII;
  features.data_kind = DataKind::kTextList;
  return db::Schema(
      "cars", {cat("make", AttrType::kTypeI, {"maker"}),
               cat("model", AttrType::kTypeI), num("year", {}, {"year"}),
               num("price", {"dollars", "dollar", "usd"}, {"price", "cost"}),
               num("mileage", {"miles", "mi"}, {"mileage"}),
               cat("color", AttrType::kTypeII, {"color"}),
               cat("transmission", AttrType::kTypeII),
               cat("doors", AttrType::kTypeII),
               cat("drivetrain", AttrType::kTypeII), features});
}

struct MakeModel {
  const char* make;
  const char* model;
};
constexpr MakeModel kFleetPairs[] = {
    {"honda", "accord"},   {"honda", "civic"}, {"toyota", "camry"},
    {"toyota", "corolla"}, {"ford", "focus"},  {"ford", "mustang"},
    {"chevy", "malibu"},   {"bmw", "m3"},      {"mazda", "mazda3"},
    {"jeep", "cherokee"},
};
constexpr const char* kFleetColors[] = {"blue",   "red",   "white", "black",
                                        "silver", "green", "gold"};

/// Clustered fleet (bench/rank_scale.cc's, same fixed data seed): (make,
/// model) groups in sequence, prices ascending with cents jitter inside
/// each group's band, the categorical attributes cycling. The workload
/// seed varies the questions, not the table, so every seed sweeps the same
/// data.
db::Table BuildFleet(std::size_t rows) {
  static constexpr const char* kFeatures[] = {
      "cd player;power steering", "gps;leather seats", "bluetooth;usb",
      "cruise control", "backup camera;sunroof"};
  constexpr std::size_t kNumPairs = std::size(kFleetPairs);
  db::Table table(FleetSchema());
  Rng rng(20111130);
  const std::size_t per_pair = rows / kNumPairs;
  for (std::size_t p = 0; p < kNumPairs; ++p) {
    const double band_lo = 2000.0 + 4000.0 * static_cast<double>(p);
    const std::size_t n = p + 1 == kNumPairs ? rows - per_pair * p : per_pair;
    for (std::size_t i = 0; i < n; ++i) {
      const double frac = static_cast<double>(i) / static_cast<double>(n);
      db::Record r;
      r.push_back(db::Value::Text(kFleetPairs[p].make));
      r.push_back(db::Value::Text(kFleetPairs[p].model));
      r.push_back(db::Value::Real(2000.0 + static_cast<double>(rng.UniformInt(0, 12))));
      r.push_back(db::Value::Real(band_lo + 4000.0 * frac + rng.UniformReal(0.0, 0.99)));
      r.push_back(db::Value::Real(static_cast<double>(rng.UniformInt(10, 180)) * 1000.0));
      r.push_back(db::Value::Text(kFleetColors[i % 7]));
      r.push_back(db::Value::Text(i % 3 == 0 ? "manual" : "automatic"));
      r.push_back(db::Value::Text(i % 2 == 0 ? "4 door" : "2 door"));
      r.push_back(db::Value::Text(i % 5 == 0 ? "4 wheel drive" : "2 wheel drive"));
      r.push_back(db::Value::Text(kFeatures[i % 5]));
      MustOk(table.Insert(std::move(r)).status(), "fleet insert");
    }
  }
  table.BuildIndexes();
  return table;
}

void GenRankSweep(const Args& a) {
  db::Table fleet = BuildFleet(a.smoke ? 20000 : kRankRows);
  core::CqadsEngine engine;
  MustOk(engine.AddDomain(&fleet, qlog::TiMatrix()), "add fleet");
  MustOk(engine.SaveSnapshot(a.dir + "/engine.snap"), "save snapshot");

  // Numeric price targets (a full-table sweep, 1 in 5) and N-1 shapes
  // (make model price, 3 in 5; color make model price, 1 in 5), stratified
  // so every seed draws the same mix: question k has shape k % 5 and a
  // price target jittered inside the k-th slice of the price range. The
  // median request then falls inside the make-model cluster rather than in
  // the gap between it and the full sweeps. Kept only when the answer
  // actually ran the partial-ranking sweep. The first question, the one
  // set-up answers, is the same for every seed.
  SplitMix rng(a.seed ^ 0x7A4BULL);
  const std::size_t want = a.smoke ? 24 : kRankQuestions;
  const double slice = 42000.0 / static_cast<double>(want);
  std::vector<std::pair<std::string, std::string>> qs;
  auto triggers_rank = [&](const std::string& q) {
    auto r = engine.AskInDomain("cars", q);
    return r.ok() && r.value().stats.rank_blocks_visited +
                             r.value().stats.rank_blocks_skipped > 0;
  };
  if (!triggers_rank(kRankSetupQuestion)) Die("set-up question does not rank");
  qs.emplace_back("cars", kRankSetupQuestion);
  for (std::size_t k = 0; k < want; ++k) {
    const auto& pair = kFleetPairs[(k / 5) % std::size(kFleetPairs)];
    const char* color = kFleetColors[(k / 5) % std::size(kFleetColors)];
    for (int attempt = 0; attempt < 4; ++attempt) {
      const int price = 150 + static_cast<int>((static_cast<double>(k) + rng.Unit()) * slice);
      std::string q = std::to_string(price) + " dollars";
      if (k % 5 >= 1) q = std::string(pair.make) + " " + pair.model + " " + q;
      if (k % 5 == 4) q = std::string(color) + " " + q;
      if (triggers_rank(q)) {
        qs.emplace_back("cars", q);
        break;
      }
    }
  }
  WriteLines(a.dir + "/questions.tsv", QuestionLines(qs));
}

// ------------------------------------------------------------ serving side

struct Question {
  std::string domain;  ///< generated domain label
  std::string text;
};

std::vector<Question> LoadQuestions(const std::string& dir) {
  std::vector<Question> out;
  for (const auto& line : ReadLines(dir + "/questions.tsv")) {
    const auto f = SplitTabs(line);
    if (f.size() != 2) Die("bad questions.tsv line");
    out.push_back({f[0], f[1]});
  }
  if (out.empty()) Die("no questions");
  return out;
}

/// What sequential in-process answering returns for one question.
struct Reference {
  std::string domain;  ///< the answering domain
  std::uint64_t digest = 0;
};

/// Outcome tallies over everything the run checked.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;    ///< any non-ok status (shed and deadline too)
  std::uint64_t degraded = 0;
  std::uint64_t wrong = 0;     ///< answered, but not the reference answer
  std::vector<std::string> problems;

  std::uint64_t failed() const { return errors + degraded + wrong; }
  void Problem(const std::string& p) {
    if (problems.size() < 8) problems.push_back(p);
  }
  void Merge(const Tally& o) {
    attempted += o.attempted;
    errors += o.errors;
    degraded += o.degraded;
    wrong += o.wrong;
    for (const auto& p : o.problems) Problem(p);
  }
};

/// One persistent protocol connection as raw fd + the shared decoder, for
/// the poll-driven closed loop (partial reads, encode timed apart from the
/// send). Blocking one-at-a-time calls use wire::NetClient.
struct WireConn {
  cqads::net::Fd fd;
  wire::FrameDecoder decoder;

  void Send(const std::string& payload) {
    std::string frame;
    wire::AppendFrame(payload, &frame);
    MustOk(cqads::net::WriteFull(fd.get(), frame.data(), frame.size()), "send");
  }
  /// Reads what is available (blocking until something is); false on EOF.
  bool ReadSome() {
    char buf[65536];
    const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n <= 0) return false;
    decoder.Feed(buf, static_cast<std::size_t>(n));
    return true;
  }
};

/// One blocking call on `client`: nothing else may be in flight on it.
wire::Response Call(wire::NetClient* client, const wire::Request& request) {
  return Must(client->Call(request), "call");
}

wire::Request AskRequest(std::uint64_t id, const std::string& method,
                         const std::string& domain, const std::string& text) {
  wire::Request r;
  r.id = id;
  r.method = method;
  r.domain = domain;
  r.question = text;
  return r;
}

/// Classifies a wire response against the reference; returns true when it
/// is the correct answer.
bool CheckWire(const wire::Response& resp, const Reference& ref, Tally* t) {
  if (!resp.ok()) {
    ++t->errors;
    t->Problem("wire status " + resp.status + ": " + resp.error);
    return false;
  }
  if (resp.degraded) {
    ++t->degraded;
    return false;
  }
  if (Digest(resp.canonical) != ref.digest) {
    ++t->wrong;
    t->Problem("answer mismatch in domain " + resp.domain);
    return false;
  }
  return true;
}

/// The serving daemon as shipped: cqads_serverd booted from the snapshot
/// on a Unix socket, with its defaults (4 workers, prepared cache on, no
/// budget, no max_queue), in a child process at nice +kServerNice. The
/// benchmark's client shares the machine; the lower priority keeps a busy
/// server from starving it, as clients on other hosts would not be.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& snapshot, std::string sock)
      : sock_(std::move(sock)) {
    if (g_daemon_pid > 0) Die("a daemon is already running");
    ::unlink(sock_.c_str());
    const char* argv[] = {binary.c_str(), "--snapshot", snapshot.c_str(),
                          "--unix", sock_.c_str(), nullptr};
    pid_ = ::fork();
    if (pid_ < 0) Die("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::setpriority(PRIO_PROCESS, 0, kServerNice);
      const int devnull = ::open("/dev/null", O_WRONLY);
      if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);  // banner, final stats
      ::execv(argv[0], const_cast<char* const*>(argv));
      ::_exit(127);
    }
    g_daemon_pid = pid_;
    if (::clock_getcpuclockid(pid_, &cpu_clock_) != 0) Die("no CPU clock for cqads_serverd");
  }
  ~Daemon() {
    ::kill(pid_, SIGTERM);
    ::waitpid(pid_, nullptr, 0);
    g_daemon_pid = -1;
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// A blocking client connection.
  wire::NetClient Client() {
    return Retry([&] { return wire::NetClient::ConnectUnix(sock_); });
  }
  /// A raw connection for the poll-driven closed loop.
  std::unique_ptr<WireConn> Raw() {
    auto c = std::make_unique<WireConn>();
    c->fd = Retry([&] { return cqads::net::UnixConnect(sock_); });
    return c;
  }

  /// The daemon's peak resident set (VmHWM), MiB.
  double PeakRssMb() const {
    return ::PeakRssMb("/proc/" + std::to_string(pid_) + "/status");
  }

  /// CPU time every thread of the daemon has received so far, ns (its
  /// process CPU clock: time the hypervisor stole is not in it).
  std::uint64_t CpuNs() const { return ClockNs(cpu_clock_); }
  /// CpuNs() once every daemon thread sleeps (see AwaitThreadsIdle).
  std::uint64_t IdleCpuNs() const {
    AwaitThreadsIdle(pid_, 0);
    return CpuNs();
  }

 private:
  /// `connect()`'s value, retried while the daemon boots.
  template <typename Connect>
  auto Retry(const Connect& connect) -> std::decay_t<decltype(connect().value())> {
    const auto give_up = Clock::now() + std::chrono::seconds(60);
    for (;;) {
      auto conn = connect();
      if (conn.ok()) return std::move(conn).value();
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        g_daemon_pid = -1;
        Die("cqads_serverd exited during start-up");
      }
      if (Clock::now() > give_up) Die("cqads_serverd did not start listening");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  std::string sock_;
  pid_t pid_ = -1;
  clockid_t cpu_clock_{};
};

/// The workload's entry point, as the driver sees it.
enum class Entry { kWireAsk, kWireAskInDomain, kPoolAsync };

/// Serving-side CPU seconds from boot to the first answer through the
/// entry point (checked); everything is torn down again before returning.
/// For the wire entries that is the daemon's whole life so far (process
/// start, OpenSnapshot, listener, first answer); otherwise this process's
/// CPU time across OpenSnapshot, the ConcurrentServer and the answer.
double TimeSetup(const Args& a, Entry entry, const Question& q,
                 const Reference& ref, Tally* tally) {
  const std::string snap = a.dir + "/engine.snap";
  ++tally->attempted;
  if (entry == Entry::kPoolAsync) {
    const std::uint64_t cpu0 = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
    auto engine = Must(core::CqadsEngine::OpenSnapshot(snap), "open snapshot");
    serve::ConcurrentServer server(engine.get());
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<core::AskResult> result = Status::Internal("unset");
    server.AskAsync(q.text, Deadline(), [&](Result<core::AskResult> r) {
      std::lock_guard<std::mutex> lock(mu);
      result = std::move(r);
      done = true;
      cv.notify_one();
    });
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });
    }
    AwaitThreadsIdle(::getpid(), ThisThreadId());
    const double cpu_s = static_cast<double>(ClockNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e9;
    if (!result.ok() || AnswerDigest(result.value()) != ref.digest) {
      ++tally->wrong;
      tally->Problem("set-up answer mismatch");
    }
    return cpu_s;
  }
  Daemon daemon(a.daemon, snap, a.dir + "/setup.sock");
  auto client = daemon.Client();
  const bool in_domain = entry == Entry::kWireAskInDomain;
  CheckWire(Call(&client, AskRequest(1, in_domain ? "ask_in_domain" : "ask",
                                     in_domain ? q.domain : "", q.text)),
            ref, tally);
  return static_cast<double>(daemon.IdleCpuNs()) / 1e9;
}

std::vector<Reference> ComputeReferences(const core::CqadsEngine& engine,
                                         const std::vector<Question>& qs,
                                         bool in_domain) {
  std::vector<Reference> refs;
  refs.reserve(qs.size());
  for (const auto& q : qs) {
    auto r = in_domain ? engine.AskInDomain(q.domain, q.text) : engine.Ask(q.text);
    if (!r.ok()) Die("reference answer failed: " + q.text);
    refs.push_back({r.value().domain, AnswerDigest(r.value())});
  }
  return refs;
}

/// Everything a traced run gathers beside the spans.
struct TraceSample {
  std::uint64_t request;  ///< span request id
  std::size_t question;
};

struct Metrics {
  std::vector<std::pair<std::string, double>> values;
  void Set(const std::string& name, double v) {
    for (auto& kv : values) {
      if (kv.first == name) {
        kv.second = v;
        return;
      }
    }
    values.emplace_back(name, v);
  }
  void SetDefault(const std::string& name, double v) {
    for (const auto& kv : values) {
      if (kv.first == name) return;
    }
    values.emplace_back(name, v);
  }
};

/// Replays sampled questions in process through each stage of
/// QueryPipeline::Full() over one QueryContext on the pinned snapshot,
/// one span per stage under a "replay" span whose parent is the sampled
/// request's root span. Checks each replayed answer against its reference
/// (when `check` allows) and sums the execution counters.
db::ExecStats Replay(const core::CqadsEngine& engine,
                     const std::vector<Question>& qs,
                     const std::vector<Reference>& refs, bool in_domain,
                     const std::vector<TraceSample>& samples,
                     const std::map<std::uint64_t, std::uint64_t>& roots,
                     const std::function<bool(std::size_t)>& check,
                     SpanLog* spans, Tally* tally) {
  db::ExecStats total;
  const core::QueryPipeline& pipeline = core::QueryPipeline::Full();
  for (const auto& s : samples) {
    const Question& q = qs[s.question];
    core::EngineSnapshot::Ptr snap = engine.snapshot();
    core::QueryContext ctx(q.text, in_domain ? q.domain : "");
    const auto replay_start = Clock::now();
    std::vector<std::pair<const char*, std::pair<Clock::time_point, Clock::time_point>>> stages;
    Status st = Status::OK();
    for (const auto& stage : pipeline.stages()) {
      const auto t0 = Clock::now();
      st = stage->Run(*snap, &ctx);
      stages.push_back({stage->name(), {t0, Clock::now()}});
      if (!st.ok() || ctx.done) break;
    }
    const auto replay_end = Clock::now();
    auto root = roots.find(s.request);
    const std::uint64_t replay_id =
        spans->Add(s.request, root == roots.end() ? 0 : root->second, "replay",
                   replay_start, replay_end);
    for (const auto& [name, se] : stages) {
      spans->Add(s.request, replay_id, name, se.first, se.second);
    }
    ++tally->attempted;
    if (!st.ok()) {
      ++tally->errors;
      tally->Problem("replay failed: " + st.ToString());
      continue;
    }
    total += ctx.result.stats;
    if (check(s.question) && AnswerDigest(ctx.result) != refs[s.question].digest) {
      ++tally->wrong;
      tally->Problem("replay mismatch: " + q.text);
    }
  }
  return total;
}

void SetExecMetrics(const db::ExecStats& s, std::size_t n, Metrics* m) {
  const double d = n == 0 ? 1.0 : static_cast<double>(n);
  m->Set("exec.rows_visited", static_cast<double>(s.rows_visited) / d);
  m->Set("exec.index_lookups", static_cast<double>(s.index_lookups) / d);
  m->Set("exec.full_scans", static_cast<double>(s.full_scans) / d);
  m->Set("rank.blocks_visited", static_cast<double>(s.rank_blocks_visited) / d);
  const double blocks =
      static_cast<double>(s.rank_blocks_visited + s.rank_blocks_skipped);
  m->Set("rank.blocks_skipped_ratio",
         blocks == 0 ? 0.0 : static_cast<double>(s.rank_blocks_skipped) / blocks);
  m->Set("rank.rows_pruned", static_cast<double>(s.rank_rows_pruned) / d);
  m->Set("rank.threshold_updates",
         static_cast<double>(s.rank_threshold_updates) / d);
}

/// Every per-layer metric not measured otherwise is 0: a layer a workload
/// does not reach reports no work.
void ZeroLayerMetrics(Metrics* m) {
  for (const char* name :
       {"net.ping_rtt_us", "net.overhead_us", "protocol.encode_us",
        "protocol.decode_us", "net.frames_in", "net.protocol_errors",
        "net.bad_requests", "net.dropped_responses", "serve.queue_wait_mean_us",
        "serve.queue_wait_max_us", "serve.shed", "serve.deadline_exceeded",
        "serve.degraded", "serve.errors", "cache.hit_ratio", "cache.evictions",
        "exec.rows_visited", "exec.index_lookups", "exec.full_scans",
        "rank.blocks_visited", "rank.blocks_skipped_ratio", "rank.rows_pruned",
        "rank.threshold_updates", "ingest_us", "ingest_p99_us", "compact_ms",
        "delta.rows_max", "snapshot.open_ms", "snapshot.mb",
        "bench.steal_pct", "trace.overhead_pct", "wall.throughput_qps",
        "wall.lat_p50_ms", "wall.lat_p99_ms"}) {
    m->SetDefault(name, 0.0);
  }
}

/// Serving-layer counters between two ConcurrentServer::Stats readings. The
/// server keeps only one queue-age maximum, since it started, so
/// serve.queue_wait_max_us is that (warm-up and untraced load included).
void SetServeMetrics(const serve::ConcurrentServer::Stats& before,
                     const serve::ConcurrentServer::Stats& after, Metrics* m) {
  const double dequeued = static_cast<double>(after.dequeued - before.dequeued);
  m->Set("serve.queue_wait_mean_us",
         dequeued == 0 ? 0.0
                       : (after.total_queue_age_micros -
                          before.total_queue_age_micros) / dequeued);
  m->Set("serve.queue_wait_max_us", after.max_queue_age_micros);
  m->Set("serve.shed", static_cast<double>(after.shed - before.shed));
  m->Set("serve.deadline_exceeded",
         static_cast<double>(after.deadline_exceeded - before.deadline_exceeded));
  m->Set("serve.degraded", static_cast<double>(after.degraded - before.degraded));
  m->Set("serve.errors", static_cast<double>(after.errors - before.errors));
}

// ------------------------------------------------------------ load

/// One measured phase.
struct Phase {
  LatencyHistogram latency;  ///< wall time per request, us (send to answer)
  /// Serving-side CPU time per request, us (service phases only).
  LatencyHistogram service;
  double seconds = 0.0;
  std::uint64_t cpu_ns = 0;  ///< serving-side CPU over the whole phase (load)
  double scale = 1.0;        ///< reference speed over measured speed
  /// Serving-side CPU per answered request at the reference speed.
  double CpuUsPerQuery() const {
    return static_cast<double>(cpu_ns) / 1e3 * scale /
           static_cast<double>(std::max<std::uint64_t>(answered(), 1));
  }
  Tally tally;

  std::uint64_t answered() const { return tally.attempted - tally.failed(); }
  double ServiceMs(double q) const { return service.PercentileMicros(q) / 1e3 * scale; }
  double ServiceMeanMs() const { return service.mean_micros() / 1e3 * scale; }
};

/// The machine's stolen CPU share between two /proc/stat readings.
struct StealMark {
  std::uint64_t steal = 0, total = 0;

  static StealMark Read() {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    StealMark m;
    std::uint64_t v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    for (auto& x : v) in >> x;
    for (auto x : v) m.total += x;
    m.steal = v[7];
    return m;
  }
  double PercentSince(const StealMark& before) const {
    const double total_d = static_cast<double>(total - before.total);
    return total_d <= 0 ? 0.0 : 100.0 * static_cast<double>(steal - before.steal) / total_d;
  }
};

/// Runs CalibrationMs() (or, for service times, a Handoff sample) on the
/// calling thread once per kCalibrationEveryS of a phase. Other tenants of
/// the machine slow every thread on it alike, by tens of percent from one
/// minute to the next; scaling CPU times by the reference over the median
/// sample takes much of that out.
class Handoff;

class Calibrator {
 public:
  /// With `handoff`, samples Handoff::SampleUs() instead of CalibrationMs().
  explicit Calibrator(Clock::time_point start, Handoff* handoff = nullptr)
      : mark_(start), handoff_(handoff) {}

  void Tick(Clock::time_point now);
  /// Reference speed over the speed measured (1 without samples).
  double Scale() const;

 private:
  Clock::time_point mark_;
  Handoff* handoff_;
  std::vector<double> samples_;
};

/// The calibration for service times: a fixed piece of work (probes into
/// CalibrationData() and string hashing) handed, one at a time, to a
/// helper thread that was asleep, which is how a request served with one in
/// flight runs. Other tenants move what a wake-up and a cold cache cost far
/// more than they move straight-line compute: over ten consecutive
/// survey_wire runs the CPU time of a request served one at a time rose by
/// half while CalibrationMs() moved by 7%.
class Handoff {
 public:
  Handoff() : helper_([this] { Serve(); }) {
    if (::pthread_getcpuclockid(helper_.native_handle(), &clock_) != 0) Die("no thread clock");
  }
  ~Handoff() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    helper_.join();
  }
  Handoff(const Handoff&) = delete;
  Handoff& operator=(const Handoff&) = delete;

  /// Median CPU time of the helper per hand-off, us, over `n` hand-offs,
  /// each made once every other thread of this process sleeps.
  double SampleUs(int n) {
    const pid_t self = ThisThreadId();
    std::vector<double> us;
    AwaitThreadsIdle(::getpid(), self);
    std::uint64_t prev = ClockNs(clock_);
    for (int i = 0; i < n; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        ++posted_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return done_ == posted_; });
      }
      AwaitThreadsIdle(::getpid(), self);
      const std::uint64_t now = ClockNs(clock_);
      us.push_back(static_cast<double>(now - prev) / 1e3);
      prev = now;
    }
    return Percentile(us, 0.5);
  }

 private:
  void Serve() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || posted_ > done_; });
      if (stop_) return;
      lock.unlock();
      Job();
      lock.lock();
      ++done_;
      cv_.notify_all();
    }
  }
  static void Job() {
    const auto* data = CalibrationData();
    std::uint64_t acc = 0;
    SplitMix rng(17);
    for (int i = 0; i < 1000; ++i) {
      auto it = data->first.find(rng.Next() % 2 == 0 ? rng.Next() : acc);
      acc += it == data->first.end() ? 1 : it->second;
    }
    std::string text(64, 'a');
    for (int i = 0; i < 200; ++i) {
      text[i % 64] = static_cast<char>('a' + (acc + i) % 26);
      acc += Digest(text);
    }
    if (acc == 42) std::fprintf(stderr, " ");  // keeps the work observable
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t posted_ = 0, done_ = 0;  // guarded by mu_
  bool stop_ = false;                    // guarded by mu_
  clockid_t clock_{};
  std::thread helper_;  ///< last: starts once the members above exist
};

void Calibrator::Tick(Clock::time_point now) {
  if (now - mark_ < std::chrono::duration<double>(kCalibrationEveryS)) return;
  samples_.push_back(handoff_ != nullptr ? handoff_->SampleUs(kHandoffsPerSample)
                                         : CalibrationMs());
  mark_ = now;
}

double Calibrator::Scale() const {
  if (samples_.empty()) return 1.0;
  return (handoff_ != nullptr ? kHandoffUs : kCalibrationMs) / Percentile(samples_, 0.5);
}

/// The gated figures: CPU cost under load and the per-request service-time
/// distribution. Wall-clock figures only go to stderr here.
void SetLoadMetrics(const Phase& loaded, const Phase& service, Metrics* m) {
  const double answered = static_cast<double>(std::max<std::uint64_t>(loaded.answered(), 1));
  std::fprintf(stderr,
               "perfbench: loaded %.0f q/s wall p50 %.3f p99 %.3f ms, %.1f cpu us/query "
               "(scale %.3f); service n %llu (scale %.3f) mean %.3f p10 %.3f p25 %.3f "
               "p50 %.3f p75 %.3f p90 %.3f p99 %.3f ms cpu\n",
               answered / loaded.seconds, loaded.latency.PercentileMicros(0.5) / 1e3,
               loaded.latency.PercentileMicros(0.99) / 1e3,
               loaded.CpuUsPerQuery(), loaded.scale,
               static_cast<unsigned long long>(service.service.count()), service.scale,
               service.ServiceMeanMs(),
               service.ServiceMs(0.1), service.ServiceMs(0.25), service.ServiceMs(0.5),
               service.ServiceMs(0.75), service.ServiceMs(0.9), service.ServiceMs(0.99));
  m->Set("cpu_us_per_query", loaded.CpuUsPerQuery());
  m->Set("service_mean_ms", service.ServiceMeanMs());
  m->Set("service_p99_ms", service.ServiceMs(0.99));
}

/// Tracing state threaded through a traced phase.
struct Tracing {
  SpanLog* spans = nullptr;
  std::size_t every = 16;  ///< one request in `every` gets spans
  std::vector<TraceSample> samples;
  std::map<std::uint64_t, std::uint64_t> roots;  ///< request -> root span
};

/// Closed loop over the wire: every connection keeps `depth` requests in
/// flight, sending the next as soon as one returns, until `duration` has
/// passed (or `max_requests` were sent); then it drains. One thread polls
/// every connection. Latency runs from send to receipt.
struct ClosedLoopWire {
  std::vector<std::unique_ptr<WireConn>>* conns;
  const std::vector<Question>* qs;
  const std::vector<Reference>* refs;
  std::function<std::uint64_t()> serving_cpu_ns;
  bool in_domain = false;  ///< "ask_in_domain" with the question's domain
  std::size_t depth = 1;
  Tracing* tracing = nullptr;  ///< traced phases only
  std::uint64_t next_id = 0;   ///< request ids run on across phases

  /// `next_question()` yields the question index of each new request.
  Phase Run(double duration, const std::function<std::size_t()>& next_question,
            std::size_t max_requests = SIZE_MAX) {
    struct InFlight {
      std::uint64_t id;
      std::size_t question;
      Clock::time_point sent, encoded;
    };
    Phase out;
    std::vector<std::vector<InFlight>> inflight(conns->size());
    const std::uint64_t cpu0 = serving_cpu_ns();
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(duration));
    std::size_t sent = 0, outstanding = 0;
    auto send = [&](std::size_t c) {
      const std::size_t i = next_question();
      const Question& q = (*qs)[i];
      InFlight f{++next_id, i, Clock::now(), {}};
      const std::string payload = wire::EncodeRequest(AskRequest(
          f.id, in_domain ? "ask_in_domain" : "ask", in_domain ? q.domain : "", q.text));
      f.encoded = Clock::now();
      (*conns)[c]->Send(payload);
      inflight[c].push_back(f);
      ++sent;
      ++outstanding;
    };
    for (std::size_t c = 0; c < conns->size(); ++c) {
      for (std::size_t d = 0; d < depth && sent < max_requests; ++d) send(c);
    }
    std::vector<pollfd> fds;
    for (auto& c : *conns) fds.push_back({c->fd.get(), POLLIN, 0});
    Calibrator calibrator(start);
    std::string payload;
    while (outstanding > 0) {
      if (::poll(fds.data(), fds.size(), 1000) <= 0) {
        if (Clock::now() > stop + std::chrono::seconds(10)) Die("responses stopped");
        continue;
      }
      for (std::size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        WireConn& conn = *(*conns)[c];
        if (!conn.ReadSome()) Die("server closed a connection");
        while (conn.decoder.Pop(&payload) == wire::FrameDecoder::Next::kFrame) {
          const auto received = Clock::now();
          auto resp = wire::DecodeResponse(payload);
          const auto decoded = Clock::now();
          if (!resp.ok()) Die("bad response frame");
          auto it = std::find_if(inflight[c].begin(), inflight[c].end(),
                                 [&](const InFlight& f) { return f.id == resp.value().id; });
          if (it == inflight[c].end()) Die("response to an unknown request");
          const InFlight f = *it;
          inflight[c].erase(it);
          --outstanding;
          ++out.tally.attempted;
          const bool good = CheckWire(resp.value(), (*refs)[f.question], &out.tally);
          out.latency.Record(
              good ? std::chrono::duration<double, std::micro>(received - f.sent).count()
                   : kFailedLatencyMs * 1e3);
          if (tracing != nullptr && f.id % tracing->every == 0) {
            SpanLog* spans = tracing->spans;
            const std::uint64_t root = spans->Add(f.id, 0, "request", f.sent, received);
            spans->Add(f.id, root, "protocol.encode", f.sent, f.encoded);
            spans->Add(f.id, root, "protocol.decode", received, decoded);
            tracing->roots[f.id] = root;
            tracing->samples.push_back({f.id, f.question});
          }
          if (received < stop && sent < max_requests) send(c);
        }
      }
      calibrator.Tick(Clock::now());
    }
    out.seconds = SecondsSince(start);
    out.cpu_ns = serving_cpu_ns() - cpu0;
    out.scale = calibrator.Scale();
    return out;
  }
};

/// Tallies one in-process answer; true when it is the reference answer
/// (or when `compare` is false, any full answer).
bool CheckAnswer(const Result<core::AskResult>& r, const Reference& ref, bool compare,
                 const std::string& text, Tally* t) {
  ++t->attempted;
  if (!r.ok()) {
    ++t->errors;
    t->Problem("status " + r.status().ToString());
    return false;
  }
  if (r.value().degraded) {
    ++t->degraded;
    return false;
  }
  if (compare && AnswerDigest(r.value()) != ref.digest) {
    ++t->wrong;
    t->Problem("answer mismatch: " + text);
    return false;
  }
  return true;
}

/// Service time through the daemon: one request in flight on a connection
/// of its own, the daemon otherwise idle. A request's cost is the CPU time
/// every daemon thread received from the moment the daemon was idle before
/// it to the moment it is idle again after the response, at the reference
/// speed (see Handoff); questions from `next`.
Phase MeasureWireService(Daemon* daemon, const std::vector<Question>& qs,
                         const std::vector<Reference>& refs, bool in_domain,
                         double duration, const std::function<std::size_t()>& next) {
  auto client = daemon->Client();
  Phase out;
  Handoff handoff;
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration<double>(duration);
  Calibrator calibrator(start - std::chrono::seconds(1), &handoff);  // samples at once
  std::uint64_t cpu_prev = daemon->IdleCpuNs(), id = 0;
  while (Clock::now() < stop) {
    calibrator.Tick(Clock::now());
    const std::size_t i = next();
    const Question& q = qs[i];
    const wire::Response resp =
        Call(&client, AskRequest(++id, in_domain ? "ask_in_domain" : "ask",
                                 in_domain ? q.domain : "", q.text));
    const std::uint64_t cpu = daemon->IdleCpuNs();
    out.service.Record(static_cast<double>(cpu - cpu_prev) / 1e3);
    cpu_prev = cpu;
    ++out.tally.attempted;
    CheckWire(resp, refs[i], &out.tally);
  }
  out.seconds = SecondsSince(start);
  out.scale = calibrator.Scale();
  return out;
}

/// Zero-load probes on an idle connection: ping round trip, and socket
/// round trip minus the in-process ConcurrentServer::AskInDomain time for
/// the same (warm) question; medians.
void ProbeWire(const core::CqadsEngine& engine, Daemon* daemon,
               const std::vector<Question>& qs, const std::vector<Reference>& refs,
               std::size_t n_questions, Metrics* m, Tally* tally) {
  auto client = daemon->Client();
  std::vector<double> ping_us;
  for (int i = 0; i < 200; ++i) {
    wire::Request ping;
    ping.id = i;
    ping.method = "ping";
    const auto t0 = Clock::now();
    const auto resp = Call(&client, ping);
    ping_us.push_back(SecondsSince(t0) * 1e6);
    if (!resp.ok()) Die("ping failed");
  }
  serve::ConcurrentServer local(&engine);
  std::vector<double> overhead_us;
  for (std::size_t k = 0; k < n_questions; ++k) {
    const std::size_t i = (k * 7919) % qs.size();
    const std::string& domain = refs[i].domain;
    const auto request = AskRequest(k, "ask_in_domain", domain, qs[i].text);
    double wire_us = 0.0, local_us = 0.0;
    for (int rep = 0; rep < 2; ++rep) {  // the second call is the warm one
      const auto t0 = Clock::now();
      const auto resp = Call(&client, request);
      wire_us = SecondsSince(t0) * 1e6;
      ++tally->attempted;
      CheckWire(resp, refs[i], tally);
      const auto t1 = Clock::now();
      auto r = local.AskInDomain(domain, qs[i].text);
      local_us = SecondsSince(t1) * 1e6;
      if (!r.ok()) Die("in-process ask failed");
    }
    overhead_us.push_back(wire_us - local_us);
  }
  m->Set("net.ping_rtt_us", Percentile(ping_us, 0.5));
  m->Set("net.overhead_us", Percentile(overhead_us, 0.5));
}

/// The daemon's counters, read over the wire with "statsz".
struct WireCounters {
  double frames_in = 0, protocol_errors = 0, bad_requests = 0, dropped_responses = 0;
  serve::ConcurrentServer::Stats serve;
  double cache_hits = 0, cache_misses = 0, cache_evictions = 0;

  static WireCounters Read(wire::NetClient* client) {
    wire::Request req;
    req.method = "statsz";
    const wire::Response resp = Call(client, req);
    auto parsed = JsonValue::Parse(resp.stats_json);
    if (!resp.ok() || !parsed.ok()) Die("statsz failed");
    const JsonValue& v = parsed.value();
    const JsonValue* net = v.Find("net");
    if (net == nullptr) Die("statsz has no net block");
    WireCounters c;
    c.frames_in = net->GetNumber("frames_in");
    c.protocol_errors = net->GetNumber("protocol_errors");
    c.bad_requests = net->GetNumber("bad_requests");
    c.dropped_responses = net->GetNumber("dropped_responses");
    auto count = [&](const char* key) {
      return static_cast<std::uint64_t>(v.GetNumber(key));
    };
    c.serve.degraded = count("degraded");
    c.serve.deadline_exceeded = count("deadline_exceeded");
    c.serve.shed = count("shed");
    c.serve.errors = count("errors");
    c.serve.dequeued = count("dequeued");
    c.serve.max_queue_age_micros = v.GetNumber("max_queue_age_micros");
    c.serve.total_queue_age_micros =
        v.GetNumber("mean_queue_age_micros") * static_cast<double>(c.serve.dequeued);
    c.cache_hits = v.GetNumber("cache_hits");
    c.cache_misses = v.GetNumber("cache_misses");
    c.cache_evictions = v.GetNumber("cache_evictions");
    return c;
  }
};

void SetCacheMetrics(double hits, double misses, double evictions, Metrics* m) {
  m->Set("cache.hit_ratio", hits + misses == 0 ? 0.0 : hits / (hits + misses));
  m->Set("cache.evictions", evictions);
}

/// Net, serving and cache metrics between two readings.
void SetWireMetrics(const WireCounters& b, const WireCounters& a, Metrics* m) {
  m->Set("net.frames_in", a.frames_in - b.frames_in);
  m->Set("net.protocol_errors", a.protocol_errors - b.protocol_errors);
  m->Set("net.bad_requests", a.bad_requests - b.bad_requests);
  m->Set("net.dropped_responses", a.dropped_responses - b.dropped_responses);
  SetServeMetrics(b.serve, a.serve, m);
  SetCacheMetrics(a.cache_hits - b.cache_hits, a.cache_misses - b.cache_misses,
                  a.cache_evictions - b.cache_evictions, m);
}

// ------------------------------------------------------------ workloads

struct RunOutput {
  Metrics metrics;
  Tally tally;
};

/// Set-up cost shared by every workload: kSetups boots, each scaled to the
/// reference speed by a CalibrationMs() run right after it, median; and
/// OpenSnapshot alone (CPU time of this thread).
void MeasureSetups(const Args& a, Entry entry, const Question& q,
                   const Reference& ref, RunOutput* out) {
  std::vector<double> setup_s, open_ms;
  for (int i = 0; i < (a.smoke ? 2 : kSetups); ++i) {
    const double cpu_s = TimeSetup(a, entry, q, ref, &out->tally);
    setup_s.push_back(cpu_s * kCalibrationMs / CalibrationMs());
    const std::uint64_t t0 = ClockNs(CLOCK_THREAD_CPUTIME_ID);
    Must(core::CqadsEngine::OpenSnapshot(a.dir + "/engine.snap"), "open snapshot");
    open_ms.push_back(static_cast<double>(ClockNs(CLOCK_THREAD_CPUTIME_ID) - t0) / 1e6);
  }
  out->metrics.Set("setup_s", Percentile(setup_s, 0.5));
  out->metrics.Set("snapshot.open_ms", Percentile(open_ms, 0.5));
  std::ifstream f(a.dir + "/engine.snap", std::ios::binary | std::ios::ate);
  out->metrics.Set("snapshot.mb", static_cast<double>(f.tellg()) / (1024.0 * 1024.0));
}

/// The traced run's common tail: wall-clock figures of the untraced half,
/// tracing overhead against it, replays of the sampled requests, and the
/// spans file.
void FinishTrace(const Args& a, const core::CqadsEngine& engine,
                 const std::vector<Question>& qs, const std::vector<Reference>& refs,
                 bool in_domain, const std::function<bool(std::size_t)>& check,
                 const Phase& plain, const Phase& traced, double steal_pct,
                 Tracing* tracing, std::size_t max_replays, RunOutput* out) {
  out->metrics.Set("wall.throughput_qps",
                   static_cast<double>(plain.answered()) / plain.seconds);
  out->metrics.Set("wall.lat_p50_ms", plain.latency.PercentileMicros(0.5) / 1e3);
  out->metrics.Set("wall.lat_p99_ms", plain.latency.PercentileMicros(0.99) / 1e3);
  out->metrics.Set("bench.steal_pct", steal_pct);
  out->metrics.Set("trace.overhead_pct",
                   100.0 * (traced.latency.mean_micros() / plain.latency.mean_micros() - 1.0));
  std::vector<TraceSample> replays;
  const std::size_t stride = tracing->samples.size() / max_replays + 1;
  for (std::size_t i = 0; i < tracing->samples.size(); i += stride) {
    replays.push_back(tracing->samples[i]);
  }
  const db::ExecStats exec = Replay(engine, qs, refs, in_domain, replays,
                                    tracing->roots, check, tracing->spans, &out->tally);
  SetExecMetrics(exec, replays.size(), &out->metrics);
  tracing->spans->Write(a.dir + "/spans.tsv");
}

/// What survey_wire and rank_sweep differ in.
struct WireShape {
  Entry entry;
  std::size_t conns, depth;
  bool warm;  ///< ask every distinct question once first
  std::size_t trace_every, max_replays, overhead_questions;
};

/// A wire workload: half the run against the daemon, `shape.conns`
/// connections with `shape.depth` requests in flight each, questions from
/// `next`; then service time through the same daemon, questions from
/// `service_next`.
RunOutput RunWire(const Args& a, const std::vector<Question>& qs, const WireShape& shape,
                  std::size_t first_question, const std::function<std::size_t()>& next,
                  const std::function<std::size_t()>& service_next) {
  RunOutput out;
  const bool in_domain = shape.entry == Entry::kWireAskInDomain;
  const std::string snap = a.dir + "/engine.snap";
  // This process's own engine gives the references, the replays and the
  // in-process side of net.overhead_us.
  auto engine = Must(core::CqadsEngine::OpenSnapshot(snap), "open");
  const auto refs = ComputeReferences(*engine, qs, in_domain);
  MeasureSetups(a, shape.entry, qs[first_question], refs[first_question], &out);

  Daemon daemon(a.daemon, snap, a.dir + "/serve.sock");
  std::vector<std::unique_ptr<WireConn>> conns;
  for (std::size_t c = 0; c < shape.conns; ++c) conns.push_back(daemon.Raw());
  auto control = daemon.Client();
  ClosedLoopWire loop{&conns, &qs, &refs, [&] { return daemon.CpuNs(); }};
  loop.in_domain = in_domain;
  loop.depth = shape.depth;
  if (shape.warm) {  // untimed: fills the prepared cache
    std::size_t i = 0;
    out.tally.Merge(loop.Run(1e9, [&] { return i++; }, qs.size()).tally);
  }
  const double loaded_s = kLoadedShare * a.seconds;
  if (!a.trace) {
    const Phase loaded = loop.Run(loaded_s, next);
    out.tally.Merge(loaded.tally);
    out.metrics.Set("peak_rss_mb", daemon.PeakRssMb());
    const Phase service = MeasureWireService(&daemon, qs, refs, in_domain,
                                             a.seconds - loaded_s, service_next);
    out.tally.Merge(service.tally);
    SetLoadMetrics(loaded, service, &out.metrics);
    return out;
  }
  const StealMark steal0 = StealMark::Read();
  const Phase plain = loop.Run(0.5 * loaded_s, next);
  SpanLog spans(Clock::now());
  Tracing tracing;
  tracing.spans = &spans;
  tracing.every = shape.trace_every;
  loop.tracing = &tracing;
  const WireCounters before = WireCounters::Read(&control);
  const Phase traced = loop.Run(0.5 * loaded_s, next);
  SetWireMetrics(before, WireCounters::Read(&control), &out.metrics);
  const double steal_pct = StealMark::Read().PercentSince(steal0);
  out.tally.Merge(plain.tally);
  out.tally.Merge(traced.tally);
  FinishTrace(a, *engine, qs, refs, in_domain, [](std::size_t) { return true; }, plain,
              traced, steal_pct, &tracing, a.smoke ? 10 : shape.max_replays, &out);
  ProbeWire(*engine, &daemon, qs, refs, a.smoke ? 5 : shape.overhead_questions,
            &out.metrics, &out.tally);
  return out;
}

RunOutput RunSurveyWire(const Args& a) {
  const auto qs = LoadQuestions(a.dir);
  std::vector<std::uint32_t> seq;
  for (const auto& line : ReadLines(a.dir + "/requests.txt")) {
    seq.push_back(static_cast<std::uint32_t>(std::stoul(line)));
    if (seq.back() >= qs.size()) Die("request index out of range");
  }
  // Service time is taken over the distinct questions in turn (all cached),
  // so it does not hang on which questions a seed made popular.
  std::size_t cursor = 0, distinct = 0;
  return RunWire(a, qs, {Entry::kWireAsk, kConns, kWireDepth, true, 16, 400, 200},
                 seq[0], [&] { return seq[cursor++ % seq.size()]; },
                 [&] { return distinct++ % qs.size(); });
}

RunOutput RunRankSweep(const Args& a) {
  const auto qs = LoadQuestions(a.dir);
  // Every question equally often: a seeded order, cycled.
  std::vector<std::size_t> order(qs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  SplitMix rng(a.seed ^ 0x0DDBA11ULL);
  Shuffle(&order, &rng);
  std::size_t cursor = 0;
  auto next = [&] { return order[cursor++ % order.size()]; };
  return RunWire(a, qs, {Entry::kWireAskInDomain, 1, 1, false, 4, 100, 40}, 0,
                 next, next);
}

/// fresh_ingest's write script, parsed before the timed phase.
struct WriteOp {
  bool compact = false;
  std::string domain;
  db::Record record;
};

/// The write side of fresh_ingest: the script's ingests paced at
/// kWriteRate from `start`, its compactions in between.
struct Writer {
  std::vector<double> ingest_us, compact_ms;
  std::size_t delta_max = 0;
  bool failed = false;

  void Run(core::CqadsEngine* engine, const std::vector<WriteOp>& script,
           Clock::time_point start) {
    std::size_t ingests = 0;
    for (const WriteOp& op : script) {
      if (op.compact) {
        const auto t0 = Clock::now();
        if (!engine->CompactDomain(op.domain).ok()) failed = true;
        compact_ms.push_back(SecondsSince(t0) * 1e3);
        continue;
      }
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(ingests / kWriteRate)));
      ++ingests;
      const auto t0 = Clock::now();
      if (!engine->IngestAd(op.domain, op.record).ok()) failed = true;
      ingest_us.push_back(SecondsSince(t0) * 1e6);
      const auto snap = engine->snapshot();
      const core::DomainRuntime* rt = snap->runtime(op.domain);
      if (rt != nullptr && rt->delta != nullptr) {
        delta_max = std::max(delta_max, rt->delta->num_rows());
      }
    }
  }
};

/// In-process load through ConcurrentServer::AskAsync. Serving-side CPU is
/// this process's CPU time minus the calling thread's, which only issues
/// and checks requests.
struct PoolLoad {
  const serve::ConcurrentServer* server;
  const std::vector<Question>* qs;
  const std::vector<Reference>* refs;
  std::function<bool(std::size_t)> checked;  ///< compare this answer?
  clockid_t caller_clock;
  std::size_t cursor = 0;  ///< questions cycle through the list in order

  /// Read caller first: the difference then never undercounts.
  std::int64_t ServingCpuNs() const {
    const std::uint64_t caller = ClockNs(caller_clock);
    return static_cast<std::int64_t>(ClockNs(CLOCK_PROCESS_CPUTIME_ID) - caller);
  }

  struct Done {
    std::size_t question;
    Clock::time_point start, end;
    Result<core::AskResult> result;
  };

  /// Checks one answer on the calling thread; records its latency.
  void Check(const Done& d, Phase* phase) const {
    const bool good = CheckAnswer(d.result, (*refs)[d.question], checked(d.question),
                                  (*qs)[d.question].text, &phase->tally);
    phase->latency.Record(
        good ? std::chrono::duration<double, std::micro>(d.end - d.start).count()
             : kFailedLatencyMs * 1e3);
  }

  /// kClosedLoopDepth chains, each completion issuing its chain's next
  /// request from the completion callback itself and handing the answer to
  /// the calling thread for checking. `sampled`, when set, receives every
  /// `sample_every`-th request (traced phases).
  Phase Run(double duration, std::size_t sample_every, std::vector<Done>* sampled) {
    std::atomic<std::size_t> next{cursor};
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Done> done;  // guarded by mu
    std::size_t active = kClosedLoopDepth;  // guarded by mu
    Phase out;
    const std::int64_t cpu0 = ServingCpuNs();
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(duration));
    std::function<void()> issue = [&] {
      const std::size_t i = next.fetch_add(1) % qs->size();
      const auto t0 = Clock::now();
      server->AskAsync((*qs)[i].text, Deadline(), [&, i, t0](Result<core::AskResult> r) {
        const auto t1 = Clock::now();
        const bool more = t1 < stop;
        {
          // Once the last chain has counted itself out the caller may
          // return, so nothing is touched after that.
          std::lock_guard<std::mutex> lock(mu);
          done.push_back(Done{i, t0, t1, std::move(r)});
          if (!more) --active;
          cv.notify_one();
        }
        if (more) issue();
      });
    };
    for (std::size_t c = 0; c < kClosedLoopDepth; ++c) issue();
    Calibrator calibrator(start);
    std::vector<Done> batch;
    std::size_t count = 0;
    for (;;) {
      bool finished = false;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !done.empty() || active == 0; });
        batch.swap(done);
        finished = active == 0;
      }
      for (Done& d : batch) {
        Check(d, &out);
        if (sampled != nullptr && count++ % sample_every == 0) sampled->push_back(std::move(d));
      }
      batch.clear();
      if (finished) break;
      calibrator.Tick(Clock::now());
    }
    out.seconds = SecondsSince(start);
    out.cpu_ns = static_cast<std::uint64_t>(std::max<std::int64_t>(ServingCpuNs() - cpu0, 0));
    out.scale = calibrator.Scale();
    cursor = next.load();
    return out;
  }

  /// Service time: one request in flight, the pool otherwise idle. A
  /// request's cost is the serving-side CPU (every thread but this one)
  /// from the idle moment before it to the idle moment after its answer
  /// (see MeasureWireService), at the reference speed (see Handoff);
  /// questions continue the cycle.
  Phase Service(double duration) {
    Phase out;
    std::mutex mu;
    std::condition_variable cv;
    Handoff handoff;
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration<double>(duration);
    Calibrator calibrator(start - std::chrono::seconds(1), &handoff);  // samples at once
    const pid_t self = ThisThreadId();
    AwaitThreadsIdle(::getpid(), self);
    while (Clock::now() < stop) {
      calibrator.Tick(Clock::now());  // leaves every other thread asleep
      const std::int64_t cpu0 = ServingCpuNs();
      const std::size_t i = cursor++ % qs->size();
      Done d{i, Clock::now(), {}, Status::Internal("unset")};
      bool done = false;
      server->AskAsync((*qs)[i].text, Deadline(), [&](Result<core::AskResult> r) {
        std::lock_guard<std::mutex> lock(mu);
        d.result = std::move(r);
        done = true;
        cv.notify_one();
      });
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done; });
      }
      d.end = Clock::now();
      AwaitThreadsIdle(::getpid(), self);
      out.service.Record(
          static_cast<double>(std::max<std::int64_t>(ServingCpuNs() - cpu0, 0)) / 1e3);
      Check(d, &out);
    }
    out.seconds = SecondsSince(start);
    out.scale = calibrator.Scale();
    return out;
  }
};

RunOutput RunFreshIngest(const Args& a) {
  RunOutput out;
  const auto qs = LoadQuestions(a.dir);
  std::vector<WriteOp> script;
  for (const auto& line : ReadLines(a.dir + "/writes.tsv")) {
    const auto f = SplitTabs(line);
    if (f.size() < 2) Die("bad writes.tsv line");
    WriteOp op;
    op.compact = f[0] == "C";
    op.domain = f[1];
    if (!op.compact) op.record = DecodeRecord(f, 2);
    script.push_back(std::move(op));
  }
  auto engine = Must(core::CqadsEngine::OpenSnapshot(a.dir + "/engine.snap"), "open");
  const auto refs = ComputeReferences(*engine, qs, false);
  // Answers in the written domains change while the run writes; they are
  // checked after the final compaction instead (final.tsv).
  auto checked = [&](std::size_t i) {
    for (const char* w : kWrittenDomains) {
      if (refs[i].domain == w) return false;
    }
    return true;
  };
  MeasureSetups(a, Entry::kPoolAsync, qs[0], refs[0], &out);

  serve::ConcurrentServer server(engine.get());
  clockid_t caller_clock;
  if (::pthread_getcpuclockid(::pthread_self(), &caller_clock) != 0) Die("no thread clock");
  PoolLoad load{&server, &qs, &refs, checked, caller_clock};
  const double loaded_s = kLoadedShare * a.seconds;
  Writer writer;
  std::thread write_thread(
      [&, start = Clock::now()] { writer.Run(engine.get(), script, start); });

  if (!a.trace) {
    const Phase loaded = load.Run(loaded_s, 0, nullptr);
    write_thread.join();  // the pool is idle from here on
    const Phase service = load.Service(a.seconds - loaded_s);
    out.tally.Merge(loaded.tally);
    out.tally.Merge(service.tally);
    SetLoadMetrics(loaded, service, &out.metrics);
  } else {
    const StealMark steal0 = StealMark::Read();
    const Phase plain = load.Run(0.5 * loaded_s, 0, nullptr);
    SpanLog spans(Clock::now());
    Tracing tracing;
    tracing.spans = &spans;
    const auto before = server.stats();
    const auto cache_before = server.cache_stats();
    std::vector<PoolLoad::Done> sampled;
    const Phase traced = load.Run(0.5 * loaded_s, tracing.every, &sampled);
    SetServeMetrics(before, server.stats(), &out.metrics);
    const auto cache_after = server.cache_stats();
    SetCacheMetrics(static_cast<double>(cache_after.hits - cache_before.hits),
                    static_cast<double>(cache_after.misses - cache_before.misses),
                    static_cast<double>(cache_after.evictions - cache_before.evictions),
                    &out.metrics);
    const double steal_pct = StealMark::Read().PercentSince(steal0);
    out.tally.Merge(plain.tally);
    out.tally.Merge(traced.tally);
    for (std::size_t k = 0; k < sampled.size(); ++k) {
      const std::uint64_t rid = k + 1;
      tracing.roots[rid] = spans.Add(rid, 0, "request", sampled[k].start, sampled[k].end);
      tracing.samples.push_back({rid, sampled[k].question});
    }
    write_thread.join();  // replays read the settled snapshot
    FinishTrace(a, *engine, qs, refs, false, checked, plain, traced, steal_pct, &tracing,
                a.smoke ? 40 : 400, &out);
    out.metrics.Set("ingest_us", Percentile(writer.ingest_us, 0.5));
    out.metrics.Set("ingest_p99_us", Percentile(writer.ingest_us, 0.99));
    out.metrics.Set("compact_ms", Percentile(writer.compact_ms, 0.5));
    out.metrics.Set("delta.rows_max", static_cast<double>(writer.delta_max));
  }
  out.tally.attempted += script.size();
  if (writer.failed) {
    ++out.tally.errors;
    out.tally.Problem("a write failed");
  }

  // Final state: compact what is pending, then every probe must answer as
  // the engine rebuilt from the final rows did.
  for (const char* w : kWrittenDomains) MustOk(engine->CompactDomain(w), "compact");
  for (const auto& line : ReadLines(a.dir + "/final.tsv")) {
    const auto f = SplitTabs(line);
    if (f.size() != 3) Die("bad final.tsv line");
    ++out.tally.attempted;
    auto r = engine->AskInDomain(f[0], f[1]);
    if (!r.ok() || Hex(AnswerDigest(r.value())) != f[2]) {
      ++out.tally.wrong;
      out.tally.Problem("post-compaction mismatch: " + f[1]);
    }
  }
  return out;
}

// ------------------------------------------------------------ main

Args ParseArgs(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench gen|run --workload W --seed N --seconds S --dir D [--trace 0|1] [--smoke]");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.seed = std::stoull(value());
    else if (arg == "--seconds") a.seconds = std::stod(value());
    else if (arg == "--trace") a.trace = value() == "1";
    else if (arg == "--dir") a.dir = value();
    else if (arg == "--daemon") a.daemon = value();
    else if (arg == "--smoke") a.smoke = true;
    else Die("unknown argument " + arg);
  }
  if (a.dir.empty() || a.workload.empty() || a.seconds <= 0) Die("missing arguments");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  if (a.command == "gen") {
    if (a.workload == "survey_wire") GenSurveyWire(a);
    else if (a.workload == "fresh_ingest") GenFreshIngest(a);
    else if (a.workload == "rank_sweep") GenRankSweep(a);
    else Die("unknown workload " + a.workload);
    return 0;
  }
  if (a.command != "run") Die("unknown command " + a.command);
  RunOutput out;
  if (a.workload == "survey_wire") out = RunSurveyWire(a);
  else if (a.workload == "fresh_ingest") out = RunFreshIngest(a);
  else if (a.workload == "rank_sweep") out = RunRankSweep(a);
  else Die("unknown workload " + a.workload);

  const Tally& t = out.tally;
  if (a.trace) {
    ZeroLayerMetrics(&out.metrics);
  } else {
    out.metrics.SetDefault("peak_rss_mb", PeakRssMb("/proc/self/status"));
    out.metrics.Set("success_rate",
                    t.attempted == 0 ? 0.0
                                     : static_cast<double>(t.attempted - t.failed()) /
                                           static_cast<double>(t.attempted));
  }
  for (const auto& p : t.problems) std::fprintf(stderr, "problem: %s\n", p.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              t.failed() == 0 && t.attempted > 0 ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed()));
  for (std::size_t i = 0; i < out.metrics.values.size(); ++i) {
    std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",",
                out.metrics.values[i].first.c_str(),
                out.metrics.values[i].second);
  }
  std::printf("}}\n");
  return 0;
}

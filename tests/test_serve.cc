// Concurrent-serving smoke tests: AskBatch over a ≥4-thread worker pool
// must return byte-identical results to sequential CqadsEngine::Ask, the
// prepared-query cache must not change answers, a cache hit must skip
// classification (the cache memoizes the domain) without ever answering
// for a stale snapshot or another request kind, and snapshot swaps
// (retrain / AddDomain) must be safe while queries are in flight.
#include "serve/concurrent_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/ask_types.h"
#include "eval/experiments.h"
#include "qlog/ti_matrix.h"
#include "serve/worker_pool.h"

namespace cqads::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::WorldOptions options;
    options.seed = 31337;
    options.ads_per_domain = 120;
    options.sessions_per_domain = 300;
    options.corpus_docs_per_domain = 40;
    options.domains = {"cars", "jewellery"};
    auto built = datagen::World::Build(options);
    ASSERT_TRUE(built.ok()) << built.status();
    world_ = built.value().release();

    auto generated = eval::GenerateSurveyQuestions(*world_, 25, 25, 555);
    for (const auto& [domain, qs] : generated) {
      for (const auto& q : qs) questions_->push_back(q.text);
    }
    // Repeats exercise the prepared-query cache within a batch.
    const std::size_t unique_count = questions_->size();
    for (std::size_t i = 0; i < unique_count; i += 3) {
      questions_->push_back((*questions_)[i]);
    }
    ASSERT_GE(questions_->size(), 50u);
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
    questions_->clear();
  }

  void TearDown() override { FailPoints::DisarmAll(); }

  /// A private engine over `domains` of the world that the test may
  /// mutate.
  static void BuildEngine(core::CqadsEngine* engine,
                          const std::vector<std::string>& domains,
                          bool train_classifier = true) {
    for (const std::string& domain : domains) {
      qlog::TiMatrix ti = qlog::TiMatrix::Build(*world_->query_log(domain));
      ASSERT_TRUE(engine->AddDomain(world_->table(domain), std::move(ti)).ok());
    }
    engine->SetWordSimilarity(&world_->ws_matrix());
    if (train_classifier) {
      ASSERT_TRUE(engine->TrainClassifier().ok());
    }
  }

  static datagen::World* world_;
  static std::vector<std::string>* questions_;
};

datagen::World* ServeTest::world_ = nullptr;
std::vector<std::string>* ServeTest::questions_ = new std::vector<std::string>;

std::string Canonical(const Result<core::AskResult>& r) {
  return r.ok() ? core::CanonicalAskResultString(r.value())
                : "ERROR:" + r.status().ToString();
}

/// Counts the server's out-of-pipeline classifications: the site sits right
/// before ClassifyDomain, armed here with no delay and no error, so it
/// only counts.
class ClassifyCounter {
 public:
  ClassifyCounter() { FailPoints::Arm(kSite, FailPoints::Config()); }
  ~ClassifyCounter() { FailPoints::Disarm(kSite); }
  std::uint64_t count() const { return FailPoints::Hits(kSite); }

  static constexpr const char* kSite = "serve.classify";
};

TEST_F(ServeTest, WorkerPoolRunsEverySubmittedTask) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST_F(ServeTest, AskBatchMatchesSequentialAskByteForByte) {
  const core::CqadsEngine& engine = world_->engine();

  // Sequential ground truth through the engine facade.
  std::vector<std::string> expected;
  std::size_t expected_failures = 0;
  for (const auto& q : *questions_) {
    auto r = engine.Ask(q);
    if (r.ok()) {
      expected.push_back(core::CanonicalAskResultString(r.value()));
    } else {
      expected.push_back("ERROR:" + r.status().ToString());
      ++expected_failures;
    }
  }

  ConcurrentServer::Options options;
  options.num_workers = 4;
  ConcurrentServer server(&engine, options);
  auto results = server.AskBatch(*questions_);
  ASSERT_EQ(results.size(), questions_->size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::string got = results[i].ok()
        ? core::CanonicalAskResultString(results[i].value())
        : "ERROR:" + results[i].status().ToString();
    EXPECT_EQ(got, expected[i]) << "question: " << (*questions_)[i];
  }
  // The batch contained repeats, so the cache must have hits.
  auto stats = server.cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST_F(ServeTest, CacheDoesNotChangeAnswers) {
  const core::CqadsEngine& engine = world_->engine();
  ConcurrentServer::Options cached_options;
  cached_options.num_workers = 2;
  ConcurrentServer cached(&engine, cached_options);
  ConcurrentServer::Options uncached_options;
  uncached_options.num_workers = 2;
  uncached_options.enable_cache = false;
  ConcurrentServer uncached(&engine, uncached_options);

  for (const auto& q : *questions_) {
    auto a = cached.Ask(q);
    auto b = uncached.Ask(q);
    ASSERT_EQ(a.ok(), b.ok()) << q;
    if (!a.ok()) continue;
    EXPECT_EQ(core::CanonicalAskResultString(a.value()),
              core::CanonicalAskResultString(b.value()))
        << q;
  }
  // Ask each question twice: second pass is all hits.
  auto before = cached.cache_stats();
  for (const auto& q : *questions_) cached.Ask(q);
  auto after = cached.cache_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);
  EXPECT_EQ(uncached.cache_stats().hits + uncached.cache_stats().misses, 0u);
}

TEST_F(ServeTest, CacheHitSkipsClassification) {
  ConcurrentServer server(&world_->engine());
  ClassifyCounter classified;
  const std::string& q = (*questions_)[0];
  auto first = server.Ask(q);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(classified.count(), 1u);
  for (int i = 0; i < 3; ++i) {
    auto again = server.Ask(q);
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(again.value().domain, first.value().domain);
    EXPECT_EQ(Canonical(again), Canonical(first));
  }
  EXPECT_EQ(classified.count(), 1u) << "a cache hit ran the classifier";
  EXPECT_EQ(server.cache_stats().hits, 3u);
  EXPECT_EQ(server.cache_stats().misses, 1u);
}

TEST_F(ServeTest, CaseAndWhitespaceVariantsShareOneClassifiedEntry) {
  const core::CqadsEngine& engine = world_->engine();
  ConcurrentServer server(&engine);
  ClassifyCounter classified;
  std::set<std::string> seen;
  std::size_t checked = 0;
  for (const std::string& q : *questions_) {
    if (!seen.insert(PreparedQueryCache::NormalizeQuestion(q)).second) {
      continue;
    }
    if (!engine.Ask(q).ok()) continue;
    std::string upper = q, spread;
    for (char& c : upper) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    for (char c : q) {
      spread += (c == ' ') ? std::string(" \t  ") : std::string(1, c);
    }
    const std::uint64_t classified_before = classified.count();
    const std::uint64_t misses_before = server.cache_stats().misses;
    for (const std::string& variant :
         {q, upper, "  " + q + "\n", spread, "\t" + upper + " "}) {
      auto got = server.Ask(variant);
      ASSERT_TRUE(got.ok()) << got.status() << " for " << variant;
      // The memoized domain is the one ClassifyDomain gives on the raw
      // variant, and the answer is the engine's for that variant.
      auto want_domain = engine.ClassifyDomain(variant);
      ASSERT_TRUE(want_domain.ok()) << want_domain.status();
      EXPECT_EQ(got.value().domain, want_domain.value()) << variant;
      EXPECT_EQ(Canonical(got), Canonical(engine.Ask(variant))) << variant;
    }
    EXPECT_EQ(classified.count(), classified_before + 1) << q;
    EXPECT_EQ(server.cache_stats().misses, misses_before + 1) << q;
    ++checked;
  }
  EXPECT_GE(checked, 40u);  // both domains' distinct answerable questions
}

TEST_F(ServeTest, SnapshotVersionBumpClassifiesAgain) {
  core::CqadsEngine engine;
  BuildEngine(&engine, {"cars"});
  ConcurrentServer server(&engine);
  ClassifyCounter classified;
  const std::string& q = (*questions_)[0];

  const auto ask_twice = [&](std::uint64_t expected_classifications) {
    for (int i = 0; i < 2; ++i) {
      auto got = server.Ask(q);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got.value().domain, engine.ClassifyDomain(q).value());
      EXPECT_EQ(Canonical(got), Canonical(engine.Ask(q)));
    }
    EXPECT_EQ(classified.count(), expected_classifications);
  };
  // Each write publishes a new snapshot version; the next ask misses and
  // classifies on the new snapshot, the one after hits again.
  ask_twice(1);
  std::uint64_t version = engine.snapshot()->version();
  qlog::TiMatrix ti = qlog::TiMatrix::Build(*world_->query_log("jewellery"));
  ASSERT_TRUE(
      engine.AddDomain(world_->table("jewellery"), std::move(ti)).ok());
  ASSERT_GT(engine.snapshot()->version(), version);
  // AddDomain leaves the classifier untrained until the next retrain: both
  // asks classify, fail, and cache nothing.
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(server.Ask(q).status().code(), StatusCode::kFailedPrecondition);
  }
  EXPECT_EQ(classified.count(), 3u);
  ASSERT_TRUE(engine.TrainClassifier().ok());
  ask_twice(4);
  version = engine.snapshot()->version();
  auto row = engine.IngestAd("cars", world_->table("cars")->row(0));
  ASSERT_TRUE(row.ok()) << row.status();
  ASSERT_GT(engine.snapshot()->version(), version);
  ask_twice(5);
  ASSERT_TRUE(engine.RetireAd("cars", row.value()).ok());
  ask_twice(6);
  EXPECT_EQ(server.cache_stats().misses, 6u);
  EXPECT_EQ(server.cache_stats().hits, 4u);
}

TEST_F(ServeTest, FailedClassificationIsNotCached) {
  {
    // A real failure: the classifier is not trained yet.
    core::CqadsEngine engine;
    BuildEngine(&engine, {"cars", "jewellery"}, /*train_classifier=*/false);
    ConcurrentServer server(&engine);
    auto failed = server.Ask((*questions_)[0]);
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(server.cache_stats().entries, 0u);
    // In-domain asks need no classifier and are cached as before.
    ASSERT_TRUE(server.AskInDomain("cars", (*questions_)[0]).ok());
    EXPECT_EQ(server.cache_stats().entries, 1u);
  }
  // An injected failure on the same snapshot: the next ask classifies again
  // instead of replaying anything.
  ConcurrentServer server(&world_->engine());
  FailPoints::Config fail_once;
  fail_once.error = StatusCode::kInternal;
  fail_once.limit = 1;
  FailPoints::Arm(ClassifyCounter::kSite, fail_once);
  const std::string& q = (*questions_)[0];
  auto failed = server.Ask(q);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(server.cache_stats().entries, 0u);
  auto answered = server.Ask(q);
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_EQ(Canonical(answered), Canonical(world_->engine().Ask(q)));
  EXPECT_EQ(FailPoints::Hits(ClassifyCounter::kSite), 2u);
  EXPECT_EQ(server.cache_stats().hits, 0u);
  ASSERT_TRUE(server.Ask(q).ok());
  EXPECT_EQ(FailPoints::Hits(ClassifyCounter::kSite), 2u);
  EXPECT_EQ(server.cache_stats().hits, 1u);
}

TEST_F(ServeTest, ExpiredBudgetFailsBeforeAnyCacheLookup) {
  const core::CqadsEngine& engine = world_->engine();
  ConcurrentServer server(&engine);
  const std::string& q = (*questions_)[0];
  const std::string domain = engine.ClassifyDomain(q).value();
  const Deadline expired = Deadline::After(std::chrono::microseconds(-1));
  ClassifyCounter classified;
  for (int warm = 0; warm < 2; ++warm) {
    // Cold, then with both entries resident: never a lookup, never a
    // classification.
    const PreparedQueryCache::Stats before = server.cache_stats();
    EXPECT_EQ(server.Ask(q, expired).status().code(),
              StatusCode::kDeadlineExceeded);
    EXPECT_EQ(server.AskInDomain(domain, q, expired).status().code(),
              StatusCode::kDeadlineExceeded);
    const PreparedQueryCache::Stats after = server.cache_stats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(classified.count(), warm == 0 ? 0u : 1u);
    ASSERT_TRUE(server.Ask(q).ok());
    ASSERT_TRUE(server.AskInDomain(domain, q).ok());
  }
  EXPECT_EQ(server.stats().deadline_exceeded, 4u);
}

TEST_F(ServeTest, AskInDomainEntriesNeverAnswerAsk) {
  const core::CqadsEngine& engine = world_->engine();
  ConcurrentServer server(&engine);
  ClassifyCounter classified;
  const std::string& q = (*questions_)[0];
  const std::string domain = engine.ClassifyDomain(q).value();
  const std::string other = domain == "cars" ? "jewellery" : "cars";

  // Forced into the wrong domain first: a later ask must not replay it.
  auto forced = server.AskInDomain(other, q);
  ASSERT_TRUE(forced.ok()) << forced.status();
  EXPECT_EQ(forced.value().domain, other);
  auto asked = server.Ask(q);
  ASSERT_TRUE(asked.ok()) << asked.status();
  EXPECT_EQ(asked.value().domain, domain);
  EXPECT_EQ(Canonical(asked), Canonical(engine.Ask(q)));
  EXPECT_EQ(classified.count(), 1u);
  EXPECT_EQ(server.cache_stats().hits, 0u);

  // Even the right domain's in-domain entry is a separate entry.
  ASSERT_TRUE(server.AskInDomain(domain, q).ok());
  EXPECT_EQ(server.cache_stats().hits, 0u);
  EXPECT_EQ(server.cache_stats().misses, 3u);
  EXPECT_EQ(server.cache_stats().entries, 3u);

  // From here on each request kind hits its own entry.
  EXPECT_EQ(server.Ask(q).value().domain, domain);
  EXPECT_EQ(server.AskInDomain(other, q).value().domain, other);
  EXPECT_EQ(server.AskInDomain(domain, q).value().domain, domain);
  EXPECT_EQ(server.cache_stats().hits, 3u);
  EXPECT_EQ(classified.count(), 1u);
}

TEST_F(ServeTest, ServerTimingsIncludeClassification) {
  // The server classifies out-of-pipeline (the cache key needs the
  // domain); the cost must still show up in the "classify" timing entry.
  ConcurrentServer server(&world_->engine());
  auto r = server.Ask((*questions_)[0]);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r.value().timings.empty());
  EXPECT_EQ(r.value().timings.front().stage, "classify");
  EXPECT_GT(r.value().timings.front().micros, 0.0);
}

TEST_F(ServeTest, AskInDomainSkipsClassification) {
  const core::CqadsEngine& engine = world_->engine();
  ConcurrentServer server(&engine);
  auto direct = server.AskInDomain("cars", "red car");
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct.value().domain, "cars");
  EXPECT_EQ(server.AskInDomain("boats", "red").status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServeTest, SnapshotSwapDuringInFlightQueries) {
  // A private engine (the world's is shared with other tests) that a
  // writer thread keeps retraining — swapping snapshots — while reader
  // threads hammer the server. In-flight queries pin their snapshot, so
  // every result must stay valid and non-racy (this test is the TSan
  // target in CI).
  core::CqadsEngine engine;
  for (const auto& domain : world_->domains()) {
    qlog::TiMatrix ti = qlog::TiMatrix::Build(*world_->query_log(domain));
    ASSERT_TRUE(engine.AddDomain(world_->table(domain), std::move(ti)).ok());
  }
  engine.SetWordSimilarity(&world_->ws_matrix());
  ASSERT_TRUE(engine.TrainClassifier().ok());

  ConcurrentServer::Options options;
  options.num_workers = 4;
  ConcurrentServer server(&engine, options);

  const std::uint64_t version_before = engine.snapshot()->version();
  std::atomic<bool> stop{false};
  std::atomic<int> answered{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      std::size_t i = 0;
      while (!stop.load()) {
        const std::string& q = (*questions_)[i++ % questions_->size()];
        auto r = server.Ask(q);
        if (r.ok()) {
          EXPECT_FALSE(r.value().domain.empty());
          answered.fetch_add(1);
        }
      }
    });
  }

  for (int swap = 0; swap < 5; ++swap) {
    ASSERT_TRUE(engine.TrainClassifier().ok());
  }
  // Let the readers serve across the swapped snapshots a little longer —
  // bounded by a deadline so an Ask regression fails loudly instead of
  // hanging CI.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (answered.load() < 200 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  EXPECT_GE(answered.load(), 200)
      << "readers failed to answer while snapshots were swapping";

  EXPECT_GE(engine.snapshot()->version(), version_before + 5);
  EXPECT_GT(answered.load(), 0);
}

TEST_F(ServeTest, AddDomainDuringServingBecomesVisible) {
  core::CqadsEngine engine;
  qlog::TiMatrix cars_ti = qlog::TiMatrix::Build(*world_->query_log("cars"));
  ASSERT_TRUE(
      engine.AddDomain(world_->table("cars"), std::move(cars_ti)).ok());
  engine.SetWordSimilarity(&world_->ws_matrix());
  ASSERT_TRUE(engine.TrainClassifier().ok());

  ConcurrentServer server(&engine);
  ASSERT_TRUE(server.AskInDomain("cars", "red car").ok());
  EXPECT_EQ(server.AskInDomain("jewellery", "gold ring").status().code(),
            StatusCode::kNotFound);

  qlog::TiMatrix jewel_ti =
      qlog::TiMatrix::Build(*world_->query_log("jewellery"));
  ASSERT_TRUE(
      engine.AddDomain(world_->table("jewellery"), std::move(jewel_ti)).ok());
  ASSERT_TRUE(engine.TrainClassifier().ok());

  auto r = server.AskInDomain("jewellery", "gold ring");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().domain, "jewellery");
}

}  // namespace
}  // namespace cqads::serve

// Serving-path observability contract: while the trusted device classifies
// requests, the metrics layer must record (a) exactly as many latency
// samples as requests served, (b) a MAC count that matches the analytic
// count derived from the published architecture, and (c) a deterministic
// snapshot that is byte-identical across two identical single-threaded runs.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/metrics.hpp"
#include "core/threadpool.hpp"
#include "hpnn/model_io.hpp"
#include "hpnn/owner.hpp"
#include "hw/device.hpp"
#include "nn/layers.hpp"

namespace hpnn::hw {
namespace {

struct PublishedSetup {
  obf::HpnnKey key;
  std::uint64_t schedule_seed = 12345;
  obf::PublishedModel artifact;
};

PublishedSetup make_published(models::Architecture arch,
                              const models::ModelConfig& cfg,
                              std::uint64_t key_seed) {
  PublishedSetup s;
  Rng rng(key_seed);
  s.key = obf::HpnnKey::random(rng);
  obf::Scheduler sched(s.schedule_seed);
  obf::LockedModel model(arch, cfg, s.key, sched);
  std::stringstream ss;
  obf::publish_model(ss, model);
  s.artifact = obf::read_published_model(ss);
  return s;
}

models::ModelConfig cnn1_cfg() {
  models::ModelConfig cfg;
  cfg.in_channels = 1;
  cfg.image_size = 16;
  cfg.init_seed = 7;
  return cfg;
}

/// MACs the device's int8 datapath issues for one batch of `batch` images,
/// derived from the published architecture alone. The Mmu performs one
/// matmul per sample per conv layer (m = filters, k = C*K*K, n = oh*ow)
/// and one batched matmul per linear layer (m = batch, k = in, n = out).
std::uint64_t analytic_macs(const obf::PublishedModel& artifact,
                            std::int64_t batch) {
  const auto net = obf::instantiate_baseline(artifact);
  std::uint64_t macs = 0;
  for (std::size_t i = 0; i < net->size(); ++i) {
    if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&net->at(i))) {
      const auto& g = conv->geometry();
      const std::uint64_t per_sample =
          static_cast<std::uint64_t>(conv->out_channels()) *
          static_cast<std::uint64_t>(g.in_channels * g.kernel * g.kernel) *
          static_cast<std::uint64_t>(g.out_h() * g.out_w());
      macs += static_cast<std::uint64_t>(batch) * per_sample;
    } else if (const auto* fc = dynamic_cast<const nn::Linear*>(&net->at(i))) {
      macs += static_cast<std::uint64_t>(batch) *
              static_cast<std::uint64_t>(fc->in_features()) *
              static_cast<std::uint64_t>(fc->out_features());
    }
  }
  return macs;
}

Tensor request_batch(std::int64_t batch, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::normal(Shape{batch, 1, 16, 16}, rng, 0.0f, 0.25f);
}

/// Single-threaded pool for the duration of a test, so every chunk runs on
/// the inline execution path. The deterministic snapshot view does not rely
/// on the pin: schedule-dependent pool instruments are tagged and left out
/// of it at any thread count (DESIGN.md §9).
class ServingMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!metrics::enabled()) {
      GTEST_SKIP() << "metrics disabled";
    }
    core::set_thread_count(1);
  }
  void TearDown() override { core::set_thread_count(0); }
};

TEST_F(ServingMetricsTest, MacCounterMatchesAnalyticCount) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 19);
  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);

  metrics::MetricsRegistry::instance().reset();
  device.reset_stats();

  constexpr std::int64_t kBatch = 4;
  constexpr int kRequests = 3;
  for (int r = 0; r < kRequests; ++r) {
    (void)device.classify(request_batch(kBatch, 100 + r));
  }

  const std::uint64_t expected = kRequests * analytic_macs(s.artifact, kBatch);
  // Device-local hardware stats and the global metrics counter must agree
  // with each other and with the architecture-derived count.
  EXPECT_EQ(device.mmu_stats().mac_ops, expected);
  EXPECT_EQ(metrics::MetricsRegistry::instance()
                .counter("hw.mmu.mac_ops")
                .value(),
            expected);
}

TEST_F(ServingMetricsTest, LatencyHistogramCountsEveryRequest) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 23);
  TrustedDevice device(s.key, s.schedule_seed);
  device.load_model(s.artifact);

  metrics::MetricsRegistry::instance().reset();

  constexpr int kRequests = 5;
  constexpr std::int64_t kBatch = 2;
  for (int r = 0; r < kRequests; ++r) {
    (void)device.infer(request_batch(kBatch, 200 + r));
  }

  auto& reg = metrics::MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("hw.device.infer.requests").value(),
            static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(reg.counter("hw.device.infer.samples").value(),
            static_cast<std::uint64_t>(kRequests * kBatch));
  // One latency observation per request — never dropped, never doubled.
  EXPECT_EQ(reg.histogram("hw.device.infer.latency_us").count(),
            static_cast<std::uint64_t>(kRequests));
  const metrics::Snapshot snap = reg.snapshot();
  for (const auto& h : snap.histograms) {
    if (h.name == "hw.device.infer.latency_us") {
      EXPECT_LE(h.p50, h.p95);
      EXPECT_LE(h.p95, h.p99);
      EXPECT_LE(h.p99, h.max);
    }
  }
}

TEST_F(ServingMetricsTest, DeterministicSnapshotIsByteIdenticalAcrossRuns) {
  auto s = make_published(models::Architecture::kCnn1, cnn1_cfg(), 29);

  const auto serve_and_snapshot = [&s]() {
    metrics::MetricsRegistry::instance().reset();
    TrustedDevice device(s.key, s.schedule_seed);
    device.load_model(s.artifact);
    for (int r = 0; r < 3; ++r) {
      (void)device.classify(request_batch(2, 300 + r));
    }
    std::ostringstream os;
    metrics::write_json(os, metrics::MetricsRegistry::instance().snapshot(),
                        /*deterministic=*/true);
    return os.str();
  };

  const std::string first = serve_and_snapshot();
  const std::string second = serve_and_snapshot();
  EXPECT_EQ(first, second)
      << "deterministic snapshot differed between identical runs";
  // Sanity: the snapshot actually carries serving counters.
  EXPECT_NE(first.find("hw.mmu.mac_ops"), std::string::npos);
  EXPECT_NE(first.find("hw.device.infer.requests"), std::string::npos);
}

}  // namespace
}  // namespace hpnn::hw

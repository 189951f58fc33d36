// Observability-layer acceptance tests.
//
// The contract under test: the span recorder never blocks or tears a
// record (drop-oldest rings, seqlock slots — exercised here with
// concurrent writers under TSan); the metrics registry's Prometheus
// exposition is byte-deterministic with fixed log2 bucket bounds; the v4
// wire tails (Solve trace context, Result span block) are optional
// suffixes, so v3 and v4 peers interoperate in both directions; and —
// the load-bearing invariant — a solve with tracing enabled is
// bit-identical to the same solve with tracing disabled, for every
// registered algorithm.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string_view>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "hypergraph/generators.hpp"
#include "hypergraph/io.hpp"
#include "hypergraph/weights.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "server/socket.hpp"
#include "server/wire.hpp"

namespace hypercover {
namespace {

// --- harness ---------------------------------------------------------------

/// A SolveServer on a fresh Unix socket, served from a background
/// thread, drained on destruction (same shape as server_test.cpp's).
class ObsTestServer {
 public:
  explicit ObsTestServer(server::ServerOptions opts = {}) {
    static std::atomic<int> counter{0};
    opts.listen = "unix:/tmp/hc_obs_" + std::to_string(::getpid()) + "_" +
                  std::to_string(counter.fetch_add(1)) + ".sock";
    srv_ = std::make_unique<server::SolveServer>(opts);
    srv_->start();
    thread_ = std::thread([this] { srv_->serve(); });
  }

  ~ObsTestServer() {
    if (thread_.joinable()) {
      srv_->request_stop();
      thread_.join();
    }
  }

  [[nodiscard]] const std::string& address() const { return srv_->address(); }

  [[nodiscard]] server::Client client() const {
    server::Client c;
    c.connect(address());
    return c;
  }

 private:
  std::unique_ptr<server::SolveServer> srv_;
  std::thread thread_;
};

/// A scripted peer on a fresh Unix socket: runs `session` once per
/// accepted connection until destroyed. Lets the compat tests stage
/// exact legacy-server behaviors the real SolveServer no longer has.
class FakePeer {
 public:
  explicit FakePeer(std::function<void(server::Socket&)> session) {
    static std::atomic<int> counter{0};
    listener_ = server::Listener::open(
        "unix:/tmp/hc_obs_fake_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter.fetch_add(1)) + ".sock");
    thread_ = std::thread([this, session = std::move(session)] {
      for (;;) {
        server::Socket s = listener_.accept();
        if (!s.valid()) return;
        try {
          session(s);
        } catch (...) {
          // A session that throws drops its connection, like a real peer.
        }
      }
    });
  }

  ~FakePeer() {
    listener_.wake();
    thread_.join();
  }

  [[nodiscard]] const std::string& address() const {
    return listener_.address();
  }

 private:
  server::Listener listener_;
  std::thread thread_;
};

hg::Hypergraph obs_graph(std::uint64_t seed = 77) {
  return hg::random_uniform(60, 140, 3, hg::exponential_weights(10), seed);
}

obs::SpanRecord make_record(std::uint64_t trace_id, std::uint64_t i) {
  obs::SpanRecord rec;
  rec.trace_id = trace_id;
  rec.span_id = i * 3 + 7;
  rec.parent_span_id = 0;
  rec.start_ns = i + 1;
  rec.dur_ns = 5;
  rec.arg = i;
  rec.proc = static_cast<std::uint8_t>(obs::Proc::kClient);
  rec.set_name("test.span");
  return rec;
}

// --- recorder --------------------------------------------------------------

TEST(Recorder, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(obs::Recorder(0).capacity_per_thread(), 8u);
  EXPECT_EQ(obs::Recorder(5).capacity_per_thread(), 8u);
  EXPECT_EQ(obs::Recorder(8).capacity_per_thread(), 8u);
  EXPECT_EQ(obs::Recorder(9).capacity_per_thread(), 16u);
}

TEST(Recorder, DropOldestOnWraparound) {
  obs::Recorder rec(8);
  for (std::uint64_t i = 0; i < 20; ++i) rec.record(make_record(1, i));
  const auto got = rec.collect(1);
  ASSERT_EQ(got.size(), 8u);  // ring capacity, newest survive
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].arg, 12 + k);  // args 12..19, sorted by start_ns
    EXPECT_STREQ(got[k].name, "test.span");
  }
  EXPECT_EQ(rec.dropped(), 12u);
}

TEST(Recorder, ZeroTraceIdRecordsNothing) {
  obs::Recorder rec(8);
  rec.record(make_record(0, 3));
  EXPECT_TRUE(rec.collect_all().empty());
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Recorder, CollectFiltersByTraceAndIsNonDestructive) {
  obs::Recorder rec(32);
  for (std::uint64_t i = 0; i < 4; ++i) rec.record(make_record(1, i));
  for (std::uint64_t i = 10; i < 13; ++i) rec.record(make_record(2, i));
  EXPECT_EQ(rec.collect(1).size(), 4u);
  EXPECT_EQ(rec.collect(2).size(), 3u);
  // Snapshots, not drains: collecting one trace never disturbs another,
  // and a repeat collect sees the same records.
  EXPECT_EQ(rec.collect(1).size(), 4u);
  EXPECT_EQ(rec.collect_all().size(), 7u);
}

// collect(t) filters inside the rings instead of copying and sorting
// every live record; it must still return exactly collect_all()'s
// records of trace t, in the same order.
TEST(Recorder, CollectEqualsCollectAllFilteredToTheTrace) {
  obs::Recorder rec(64);
  std::vector<std::thread> writers;
  for (std::uint64_t t = 1; t <= 3; ++t) {
    writers.emplace_back([&rec, t] {
      // Interleaved start times across traces and threads; trace 3
      // overflows its ring so wraparound is part of the picture.
      for (std::uint64_t i = 0; i < 20 * t * t; ++i) {
        obs::SpanRecord r = make_record(t + i % 2 * 10, i);
        r.start_ns = (i * 7919 + t * 31) % 97;
        rec.record(r);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  const auto all = rec.collect_all();
  for (const std::uint64_t t : {1, 2, 3, 11, 12, 13, 99}) {
    std::vector<obs::SpanRecord> want;
    std::copy_if(all.begin(), all.end(), std::back_inserter(want),
                 [t](const obs::SpanRecord& r) { return r.trace_id == t; });
    const auto got = rec.collect(t);
    ASSERT_EQ(got.size(), want.size()) << "trace " << t;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].trace_id, t);
      EXPECT_EQ(got[k].span_id, want[k].span_id) << "trace " << t;
      EXPECT_EQ(got[k].start_ns, want[k].start_ns) << "trace " << t;
      EXPECT_EQ(got[k].arg, want[k].arg) << "trace " << t;
      EXPECT_STREQ(got[k].name, want[k].name);
    }
  }
  EXPECT_TRUE(rec.collect(0).empty());
}

// The seqlock contract, under TSan: concurrent writers plus a live
// collector never tear a record. Every field of a crafted record is a
// function of its arg, so any torn read is detectable in any snapshot.
TEST(Recorder, ConcurrentWritersWithLiveCollectorStayConsistent) {
  constexpr std::size_t kCap = 256;
  constexpr std::uint64_t kPerThread = 3 * kCap;
  constexpr int kWriters = 4;
  obs::Recorder rec(kCap);
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread collector([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const obs::SpanRecord& r : rec.collect_all()) {
        if (r.span_id != r.arg * 3 + 7 || r.start_ns != r.arg + 1) {
          torn.fetch_add(1);
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&rec, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        rec.record(make_record(100 + t, i));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  collector.join();
  EXPECT_EQ(torn.load(), 0);
  // Quiescent now: each writer's ring holds exactly its newest kCap.
  for (int t = 0; t < kWriters; ++t) {
    const auto got = rec.collect(100 + t);
    ASSERT_EQ(got.size(), kCap);
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].arg, kPerThread - kCap + k);
    }
  }
  EXPECT_EQ(rec.dropped(), kWriters * (kPerThread - kCap));
}

TEST(SpanScope, RaiiRecordsOnceAndZeroTraceIsANoop) {
  obs::Recorder rec(8);
  {
    obs::Span off(rec, "should.not.record", obs::Proc::kServer, 0, 0);
    EXPECT_EQ(off.id(), 0u);
  }
  EXPECT_TRUE(rec.collect_all().empty());

  std::uint64_t parent_id = 0;
  {
    obs::Span parent(rec, "parent", obs::Proc::kRouter, 9, 0, 42);
    parent_id = parent.id();
    EXPECT_NE(parent_id, 0u);
    obs::Span child(rec, "a.name.well.over.twenty.four.bytes",
                    obs::Proc::kServer, 9, parent.id());
    child.end();
    child.end();  // idempotent: still one record
  }
  const auto got = rec.collect(9);
  ASSERT_EQ(got.size(), 2u);
  // Sorted by start_ns: parent opened first.
  EXPECT_STREQ(got[0].name, "parent");
  EXPECT_EQ(got[0].arg, 42u);
  EXPECT_EQ(got[0].parent_span_id, 0u);
  EXPECT_EQ(got[1].parent_span_id, parent_id);
  EXPECT_EQ(std::string(got[1].name), "a.name.well.over.twenty");  // 23 chars
}

// --- histogram -------------------------------------------------------------

TEST(Histogram, Log2BucketEdges) {
  obs::Histogram h;
  for (std::uint64_t v : {0, 1, 2, 3, 4, 5}) h.observe(v);
  EXPECT_EQ(h.cumulative(0), 2u);  // le=1 holds 0 and 1
  EXPECT_EQ(h.cumulative(1), 3u);  // le=2 adds 2
  EXPECT_EQ(h.cumulative(2), 5u);  // le=4 adds 3 and 4
  EXPECT_EQ(h.cumulative(3), 6u);  // le=8 adds 5
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 15u);

  // The top finite bound is inclusive; one past it lands in +Inf.
  obs::Histogram top;
  top.observe(1ull << 27);
  top.observe((1ull << 27) + 1);
  EXPECT_EQ(top.cumulative(obs::Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(top.cumulative(obs::Histogram::kBuckets), 2u);
}

TEST(Histogram, QuantileIsTheUpperBucketBound) {
  obs::Histogram empty;
  EXPECT_EQ(empty.quantile(0.5), 0u);

  obs::Histogram h;
  h.observe(1);
  for (int i = 0; i < 99; ++i) h.observe(1000);  // bucket le=1024
  EXPECT_EQ(h.quantile(0.0), 1u);
  EXPECT_EQ(h.quantile(0.5), 1024u);
  EXPECT_EQ(h.quantile(0.99), 1024u);
  EXPECT_EQ(h.quantile(1.0), 1024u);
}

// --- registry + exposition -------------------------------------------------

TEST(MetricsRegistry, PrometheusGoldenText) {
  obs::Registry reg;
  reg.counter("hc_test_requests_total").inc(3);
  reg.gauge("hc_test_inflight").set(-2);
  reg.counter("hc_test_backend_total{backend=\"a\"}").inc();
  reg.counter("hc_test_backend_total{backend=\"b\"}").inc(2);
  obs::Histogram& h = reg.histogram("hc_test_lat_ms");
  h.observe(1);
  h.observe(3);

  std::string want =
      "# TYPE hc_test_backend_total counter\n"
      "hc_test_backend_total{backend=\"a\"} 1\n"
      "hc_test_backend_total{backend=\"b\"} 2\n"
      "# TYPE hc_test_inflight gauge\n"
      "hc_test_inflight -2\n"
      "# TYPE hc_test_lat_ms histogram\n"
      "hc_test_lat_ms_bucket{le=\"1\"} 1\n"
      "hc_test_lat_ms_bucket{le=\"2\"} 1\n";
  for (int b = 2; b < obs::Histogram::kBuckets; ++b) {
    want += "hc_test_lat_ms_bucket{le=\"" + std::to_string(1ull << b) +
            "\"} 2\n";
  }
  want +=
      "hc_test_lat_ms_bucket{le=\"+Inf\"} 2\n"
      "hc_test_lat_ms_sum 4\n"
      "hc_test_lat_ms_count 2\n"
      "# TYPE hc_test_requests_total counter\n"
      "hc_test_requests_total 3\n";
  EXPECT_EQ(reg.prometheus_text(), want);
  // Byte-deterministic: a second exposition is identical.
  EXPECT_EQ(reg.prometheus_text(), want);
}

TEST(MetricsRegistry, KindMismatchThrowsAndReferencesAreStable) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("hc_test_stable");
  EXPECT_THROW((void)reg.gauge("hc_test_stable"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("hc_test_stable"), std::logic_error);
  for (int i = 0; i < 64; ++i) {
    (void)reg.counter("hc_test_filler_" + std::to_string(i));
  }
  c.inc(7);  // the early reference must survive registry growth
  EXPECT_EQ(reg.counter("hc_test_stable").value(), 7u);
}

// --- wire tails ------------------------------------------------------------

TEST(WireTrace, SolveTraceTailIsAnOptionalSuffix) {
  server::SolveKnobs knobs;
  knobs.eps = 0.25;
  server::PayloadWriter w_plain, w_default, w_traced;
  server::encode_solve(w_plain, "mwhvc", knobs);
  server::encode_solve(w_default, "mwhvc", knobs, {});
  server::encode_solve(w_traced, "mwhvc", knobs, {0xAABBu, 0xCCDDu});
  const auto plain = w_plain.take();
  const auto traced = w_traced.take();
  EXPECT_EQ(plain, w_default.take());  // untraced == the v3 bytes
  ASSERT_EQ(traced.size(), plain.size() + 16);

  std::string algo;
  server::SolveKnobs got;
  server::TraceContext trace;
  server::PayloadReader r(traced);
  server::decode_solve(r, algo, got, &trace);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(algo, "mwhvc");
  EXPECT_EQ(got.eps, 0.25);
  EXPECT_EQ(trace.trace_id, 0xAABBu);
  EXPECT_EQ(trace.parent_span_id, 0xCCDDu);

  // The router's in-place re-parent: the parent id is the last 8 bytes.
  std::vector<std::uint8_t> patched = traced;
  const std::size_t at = patched.size() - server::kTraceParentTailOffset;
  for (int i = 0; i < 8; ++i) {
    patched[at + i] = static_cast<std::uint8_t>(0x1122334455667788ull >> (8 * i));
  }
  server::PayloadReader r2(patched);
  server::TraceContext repatched;
  server::decode_solve(r2, algo, got, &repatched);
  EXPECT_EQ(repatched.trace_id, 0xAABBu);
  EXPECT_EQ(repatched.parent_span_id, 0x1122334455667788ull);

  // A v3 decode of untraced bytes leaves the context zero.
  server::PayloadReader r3(plain);
  server::TraceContext none;
  server::decode_solve(r3, algo, got, &none);
  EXPECT_TRUE(r3.done());
  EXPECT_EQ(none.trace_id, 0u);
}

TEST(WireSpans, ResultSpanTailRoundTripsAndOmittedWhenEmpty) {
  server::WireResult res;
  res.algorithm = "greedy";
  res.completed = true;
  res.cover_weight = 7;
  res.in_cover = {true, false, true};
  res.duals = {0.5, 0.25, 0.0};
  server::PayloadWriter w_plain;
  server::encode_result(w_plain, res);
  const auto plain = w_plain.take();

  res.spans.push_back(make_record(9, 1));
  res.spans.push_back(make_record(9, 2));
  res.spans.back().proc = static_cast<std::uint8_t>(obs::Proc::kServer);
  res.spans.back().set_name("server.queue_wait");
  server::PayloadWriter w_traced;
  server::encode_result(w_traced, res);
  const auto traced = w_traced.take();
  ASSERT_GT(traced.size(), plain.size());

  server::PayloadReader r(traced);
  const server::WireResult got = server::decode_result(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(got.in_cover, res.in_cover);
  ASSERT_EQ(got.spans.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(got.spans[i].trace_id, res.spans[i].trace_id);
    EXPECT_EQ(got.spans[i].span_id, res.spans[i].span_id);
    EXPECT_EQ(got.spans[i].parent_span_id, res.spans[i].parent_span_id);
    EXPECT_EQ(got.spans[i].start_ns, res.spans[i].start_ns);
    EXPECT_EQ(got.spans[i].dur_ns, res.spans[i].dur_ns);
    EXPECT_EQ(got.spans[i].arg, res.spans[i].arg);
    EXPECT_EQ(got.spans[i].proc, res.spans[i].proc);
    EXPECT_STREQ(got.spans[i].name, res.spans[i].name);
  }
  // Re-encoding a decoded traced Result reproduces it byte for byte.
  server::PayloadWriter w2;
  server::encode_result(w2, got);
  EXPECT_EQ(w2.take(), traced);

  // No spans -> no tail: the v3 decode path sees a complete payload.
  server::PayloadReader r_plain(plain);
  const server::WireResult got_plain = server::decode_result(r_plain);
  EXPECT_TRUE(r_plain.done());
  EXPECT_TRUE(got_plain.spans.empty());
}

TEST(WireSpans, BogusSpanCountIsAProtocolError) {
  server::WireResult res;
  res.algorithm = "greedy";
  res.in_cover = {true};
  res.duals = {0.0};
  server::PayloadWriter w;
  server::encode_result(w, res);
  std::vector<std::uint8_t> payload = w.take();

  // A span-block tail claiming 4096 spans with no span bytes behind it:
  // the decoder must reject before allocating count-sized storage.
  std::vector<std::uint8_t> huge = payload;
  huge.push_back(0x00);
  huge.push_back(0x10);
  huge.push_back(0x00);
  huge.push_back(0x00);  // u32 count = 4096, then nothing
  server::PayloadReader r(huge);
  EXPECT_THROW((void)server::decode_result(r), server::ProtocolError);

  // A tail too short to even hold the count is a truncation.
  std::vector<std::uint8_t> stub = payload;
  stub.push_back(0x01);
  server::PayloadReader r2(stub);
  EXPECT_THROW((void)server::decode_result(r2), server::ProtocolError);
}

// --- v3 <-> v4 interop -----------------------------------------------------

// Direction one: a legacy v3 client against this build's server. The
// scripted exchange never mentions the v4 tails, and the server must
// neither expect nor emit them.
TEST(ObsCompat, V3ClientAgainstV4Server) {
  ObsTestServer srv;
  server::Socket sock = server::connect_to(srv.address());
  server::PayloadWriter hello;
  hello.u32(3);
  server::write_frame(sock, server::FrameTag::kHello, hello.take());
  server::Frame reply;
  ASSERT_TRUE(server::read_frame(sock, reply));
  ASSERT_EQ(reply.tag, server::FrameTag::kHelloOk);
  {
    server::PayloadReader r(reply.payload);
    EXPECT_EQ(r.u32(), 3u);  // the server echoes the CLIENT's version
  }

  server::PayloadWriter submit;
  submit.u8(0);  // inline text
  submit.str(hg::to_text(obs_graph()));
  server::write_frame(sock, server::FrameTag::kSubmitGraph, submit.take());
  ASSERT_TRUE(server::read_frame(sock, reply));
  ASSERT_EQ(reply.tag, server::FrameTag::kGraphOk);

  server::PayloadWriter solve;
  server::encode_solve(solve, "greedy", {});  // untraced = v3 bytes
  server::write_frame(sock, server::FrameTag::kSolve, solve.take());
  ASSERT_TRUE(server::read_frame(sock, reply));
  ASSERT_EQ(reply.tag, server::FrameTag::kResult);
  server::PayloadReader r(reply.payload);
  const server::WireResult res = server::decode_result(r);
  EXPECT_TRUE(r.done());            // no surprise suffix for a v3 peer
  EXPECT_TRUE(res.spans.empty());   // and no span tail
  EXPECT_FALSE(res.in_cover.empty());
}

// Direction two: this build's client against a scripted v3 server that
// rejects the v4 Hello with Error and drops the connection — the
// historical behavior. The client must reconnect at v3, keep tracing
// client-local, and refuse the Metrics scrape cleanly.
TEST(ObsCompat, V4ClientFallsBackToAV3Server) {
  FakePeer peer([](server::Socket& s) {
    server::Frame f;
    if (!server::read_frame(s, f) || f.tag != server::FrameTag::kHello) return;
    server::PayloadReader hello(f.payload);
    if (hello.u32() != 3) {
      server::PayloadWriter err;
      err.str("unsupported protocol version");
      server::write_frame(s, server::FrameTag::kError, err.take());
      return;  // drop, as a real v3 server did
    }
    server::PayloadWriter ok;
    ok.u32(3);
    server::write_frame(s, server::FrameTag::kHelloOk, ok.take());
    while (server::read_frame(s, f)) {
      if (f.tag != server::FrameTag::kSolve) return;
      server::PayloadReader r(f.payload);
      std::string algo;
      server::SolveKnobs knobs;
      server::TraceContext trace;
      server::decode_solve(r, algo, knobs, &trace);
      EXPECT_EQ(trace.trace_id, 0u);  // the client must omit the tail
      EXPECT_TRUE(r.done());
      server::WireResult res;
      res.algorithm = algo;
      res.completed = true;
      res.in_cover = {true};
      res.duals = {0.0};
      server::PayloadWriter w;
      server::encode_result(w, res);
      server::write_frame(s, server::FrameTag::kResult, w.take());
    }
  });

  server::Client c;
  c.connect(peer.address());
  EXPECT_EQ(c.version(), 3u);
  EXPECT_THROW((void)c.metrics_text(), server::RemoteError);

  c.set_tracing(true);
  const server::WireResult res = c.solve("greedy");
  EXPECT_EQ(res.algorithm, "greedy");
  // Tracing stayed client-local: the stitched spans are exactly the
  // client's own (the root, recorded despite the v3 downgrade).
  ASSERT_FALSE(res.spans.empty());
  for (const obs::SpanRecord& sp : res.spans) {
    EXPECT_EQ(sp.proc, static_cast<std::uint8_t>(obs::Proc::kClient));
  }
  EXPECT_STREQ(res.spans.front().name, "client.solve");
}

// --- busy-retry stats ------------------------------------------------------

TEST(ObsClient, BusyRetryWorkSurfacesInResultAndMetrics) {
  std::atomic<int> solve_frames{0};
  FakePeer peer([&solve_frames](server::Socket& s) {
    server::Frame f;
    if (!server::read_frame(s, f) || f.tag != server::FrameTag::kHello) return;
    server::PayloadReader hello(f.payload);
    const std::uint32_t version = hello.u32();
    server::PayloadWriter ok;
    ok.u32(version);
    server::write_frame(s, server::FrameTag::kHelloOk, ok.take());
    while (server::read_frame(s, f)) {
      if (f.tag != server::FrameTag::kSolve) return;
      if (solve_frames.fetch_add(1) == 0) {
        server::PayloadWriter w;
        server::encode_busy(w, {1, 1, 0, 0});
        server::write_frame(s, server::FrameTag::kBusy, w.take());
        continue;
      }
      server::WireResult res;
      res.algorithm = "greedy";
      res.completed = true;
      res.in_cover = {true};
      res.duals = {0.0};
      server::PayloadWriter w;
      server::encode_result(w, res);
      server::write_frame(s, server::FrameTag::kResult, w.take());
    }
  });

  const std::uint64_t retries_before =
      obs::metrics().counter("hc_client_busy_retries_total").value();
  const std::uint64_t backoff_before =
      obs::metrics().counter("hc_client_busy_backoff_ms_total").value();

  server::Client c;
  c.connect(peer.address());
  c.set_busy_retry({.max_retries = 3, .base_delay_ms = 2, .max_delay_ms = 8,
                    .seed = 7});
  const server::WireResult res = c.solve("greedy");
  EXPECT_EQ(solve_frames.load(), 2);
  EXPECT_EQ(res.busy_retries, 1u);
  EXPECT_GE(res.busy_backoff_ms, 1u);  // ceiling 2: delay in [1, 2]
  EXPECT_LE(res.busy_backoff_ms, 2u);
  EXPECT_EQ(obs::metrics().counter("hc_client_busy_retries_total").value(),
            retries_before + 1);
  EXPECT_GE(obs::metrics().counter("hc_client_busy_backoff_ms_total").value(),
            backoff_before + 1);
}

// --- end-to-end tracing ----------------------------------------------------

TEST(ObsServe, TracedSolveShipsOneStitchedSpanTree) {
  ObsTestServer srv;
  server::Client c = srv.client();
  ASSERT_EQ(c.version(), server::kProtocolVersion);
  c.set_tracing(true);
  (void)c.submit_graph_text(hg::to_text(obs_graph()));
  const server::WireResult res = c.solve("mwhvc");
  ASSERT_FALSE(res.spans.empty());

  const std::uint64_t trace_id = res.spans.front().trace_id;
  std::vector<std::uint64_t> ids;
  std::vector<std::string> names;
  std::size_t roots = 0;
  for (const obs::SpanRecord& sp : res.spans) {
    EXPECT_EQ(sp.trace_id, trace_id);
    EXPECT_NE(sp.span_id, 0u);
    ids.push_back(sp.span_id);
    names.emplace_back(sp.name);
    if (sp.parent_span_id == 0) {
      ++roots;
      EXPECT_STREQ(sp.name, "client.solve");
    }
  }
  EXPECT_EQ(roots, 1u);
  // Every non-root span's parent is in the shipped set: one tree, no
  // dangling references, stitched across the client and server layers.
  for (const obs::SpanRecord& sp : res.spans) {
    if (sp.parent_span_id == 0) continue;
    EXPECT_NE(std::find(ids.begin(), ids.end(), sp.parent_span_id),
              ids.end())
        << sp.name;
  }
  for (const char* expect : {"client.solve", "server.admit",
                             "server.queue_wait", "batch.slice",
                             "engine.round"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expect), names.end())
        << "missing span " << expect;
  }

  // A cache hit is annotated on the admit span (arg == 1) and runs no
  // scheduler slice.
  const server::WireResult hit = c.solve("mwhvc");
  ASSERT_TRUE(hit.cache_hit);
  bool saw_admit_hit = false;
  for (const obs::SpanRecord& sp : hit.spans) {
    if (std::string_view(sp.name) == "server.admit") {
      saw_admit_hit = true;
      EXPECT_EQ(sp.arg, 1u);
    }
    EXPECT_NE(std::string_view(sp.name), "batch.slice");
  }
  EXPECT_TRUE(saw_admit_hit);
}

TEST(ObsServe, MetricsScrapeExposesServerSeries) {
  ObsTestServer srv;
  server::Client c = srv.client();
  (void)c.submit_graph_text(hg::to_text(obs_graph()));
  (void)c.solve("greedy");
  const std::string text = c.metrics_text();
  for (const char* series :
       {"# TYPE hc_server_solves_total counter", "hc_server_requests_total",
        "hc_server_cache_misses_total", "hc_server_inflight",
        "hc_server_solve_latency_ms_bucket{le=\"+Inf\"}",
        "hc_batch_queue_wait_ms_count"}) {
    EXPECT_NE(text.find(series), std::string::npos) << "missing " << series;
  }
}

// The acceptance lock: for every registered algorithm, a traced solve is
// bit-identical to an untraced solve of the same request. The cache is
// disabled so both runs are cold — the engine itself must be oblivious
// to tracing, not just the cache lookup.
TEST(ObsServe, TracingOnOffIsDigestIdenticalForEveryAlgorithm) {
  server::ServerOptions opts;
  opts.cache_entries = 0;
  ObsTestServer srv(opts);
  const hg::Hypergraph g = obs_graph();
  const std::string text = hg::to_text(g);

  server::Client plain = srv.client();
  server::Client traced = srv.client();
  traced.set_tracing(true);
  (void)plain.submit_graph_text(text);
  (void)traced.submit_graph_text(text);

  for (const api::Solver& solver : api::solvers()) {
    SCOPED_TRACE(std::string(solver.name));
    const server::WireResult off = plain.solve(solver.name);
    const server::WireResult on = traced.solve(solver.name);
    EXPECT_FALSE(off.cache_hit);
    EXPECT_FALSE(on.cache_hit);
    EXPECT_TRUE(off.spans.empty());
    EXPECT_FALSE(on.spans.empty());
    EXPECT_EQ(on.in_cover, off.in_cover);
    EXPECT_EQ(on.duals, off.duals);
    EXPECT_EQ(on.cover_weight, off.cover_weight);
    EXPECT_EQ(on.dual_total, off.dual_total);
    EXPECT_EQ(on.iterations, off.iterations);
    EXPECT_EQ(on.rounds, off.rounds);
    EXPECT_EQ(on.completed, off.completed);
    EXPECT_EQ(on.outcome, off.outcome);
    EXPECT_EQ(on.total_messages, off.total_messages);
    EXPECT_EQ(on.total_bits, off.total_bits);
    EXPECT_EQ(on.transcript_hash, off.transcript_hash);
    EXPECT_EQ(on.solve_digest, off.solve_digest);
    EXPECT_EQ(on.cert_valid, off.cert_valid);
    EXPECT_EQ(on.cert_cover_valid, off.cert_cover_valid);
    EXPECT_EQ(on.cert_packing_feasible, off.cert_packing_feasible);
  }
}

}  // namespace
}  // namespace hypercover

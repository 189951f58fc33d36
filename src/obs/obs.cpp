#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <unordered_map>

namespace hypercover::obs {

std::uint64_t now_ns() {
  // [[hypercover::nondet_ok: the obs layer's single audited timestamp
  //    source. Spans and metrics are observation-only: the lint's
  //    obs-boundary rule keeps obs out of the deterministic compute
  //    layers, and the digest-identity test locks tracing on == off.]]
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t).count());
}

std::uint64_t new_id() {
  // splitmix64 over a process seed + counter: ids minted independently
  // by the client, router, and server processes for one request must not
  // collide, and ids never feed anything digest-bearing.
  // [[hypercover::nondet_ok: trace/span ids are observability
  //    identifiers only; they never reach a Solution or digest.]]
  static const std::uint64_t seed = now_ns() * 0x9e3779b97f4a7c15ull + 1;
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t z = seed + (counter.fetch_add(1, std::memory_order_relaxed)
                            + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;  // 0 means "tracing off" everywhere
}

namespace {

constexpr std::size_t kSlotWords = (sizeof(SpanRecord) + 7) / 8;
static_assert(offsetof(SpanRecord, trace_id) == 0,
              "Ring::snapshot filters on slot word 0");

std::size_t round_up_pow2(std::size_t v) {
  std::size_t cap = 8;
  while (cap < v) cap <<= 1;
  return cap;
}

}  // namespace

/// One writer thread's ring. Slots are seqlocks: an odd sequence means a
/// write is in progress; a reader that sees the sequence change mid-copy
/// discards the slot. Payload words are relaxed atomics (never part of a
/// data race), with the sequence counter carrying the ordering.
struct Recorder::Ring {
  struct Slot {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::uint64_t> words[kSlotWords];
  };

  explicit Ring(std::size_t cap) : slots(cap), mask(cap - 1) {
    for (Slot& s : slots)
      for (std::atomic<std::uint64_t>& w : s.words)
        w.store(0, std::memory_order_relaxed);
  }

  void write(const SpanRecord& rec) {
    const std::uint64_t idx = head.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots[idx & mask];
    const std::uint32_t seq0 = s.seq.load(std::memory_order_relaxed);
    s.seq.store(seq0 + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    std::uint64_t w[kSlotWords] = {};
    std::memcpy(w, &rec, sizeof(rec));
    for (std::size_t i = 0; i < kSlotWords; ++i)
      s.words[i].store(w[i], std::memory_order_relaxed);
    s.seq.store(seq0 + 2, std::memory_order_release);
  }

  /// Appends every consistently-readable live record of `trace_id` to
  /// `out` (every live record when `trace_id` is 0).
  void snapshot(std::vector<SpanRecord>& out, std::uint64_t trace_id) const {
    const std::uint64_t h = head.load(std::memory_order_acquire);
    const std::uint64_t cap = mask + 1;
    const std::uint64_t lo = h > cap ? h - cap : 0;
    for (std::uint64_t idx = lo; idx < h; ++idx) {
      const Slot& s = slots[idx & mask];
      for (int attempt = 0; attempt < 4; ++attempt) {
        const std::uint32_t seq1 = s.seq.load(std::memory_order_acquire);
        if (seq1 % 2 != 0) continue;  // write in progress
        // Word 0 is the trace id: a slot of another trace costs one load.
        std::uint64_t w[kSlotWords];
        w[0] = s.words[0].load(std::memory_order_relaxed);
        const bool want = w[0] != 0 && (trace_id == 0 || w[0] == trace_id);
        if (want) {
          for (std::size_t i = 1; i < kSlotWords; ++i)
            w[i] = s.words[i].load(std::memory_order_relaxed);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (s.seq.load(std::memory_order_relaxed) != seq1) continue;
        if (want) {
          SpanRecord rec;
          std::memcpy(&rec, w, sizeof(rec));
          out.push_back(rec);
        }
        break;
      }
    }
  }

  std::vector<Slot> slots;
  std::uint64_t mask;
  std::atomic<std::uint64_t> head{0};
};

namespace {
std::uint64_t next_recorder_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}
}  // namespace

Recorder::Recorder(std::size_t capacity_per_thread)
    : capacity_(round_up_pow2(capacity_per_thread)),
      id_(next_recorder_id()) {}

Recorder::~Recorder() = default;

Recorder::Ring& Recorder::local_ring() {
  // Keyed by the recorder's process-unique id (not `this`: a recorder at
  // a recycled address must not inherit a dead recorder's rings).
  // [[hypercover::nondet_ok: thread-local point lookup only, never
  //    iterated; ring discovery goes through the registered vector.]]
  thread_local std::unordered_map<std::uint64_t, std::shared_ptr<Ring>> cache;
  auto it = cache.find(id_);
  if (it == cache.end()) {
    auto ring = std::make_shared<Ring>(capacity_);
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      rings_.push_back(ring);
    }
    it = cache.emplace(id_, std::move(ring)).first;
  }
  return *it->second;
}

void Recorder::record(const SpanRecord& rec) {
  if (rec.trace_id == 0) return;
  local_ring().write(rec);
}

std::vector<SpanRecord> Recorder::collect(std::uint64_t trace_id) const {
  if (trace_id == 0) return {};  // never recorded
  return snapshot(trace_id);
}

void Recorder::collect_into(std::uint64_t trace_id,
                            std::vector<SpanRecord>& spans) const {
  std::vector<std::uint64_t> shipped(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) shipped[i] = spans[i].span_id;
  std::sort(shipped.begin(), shipped.end());
  for (const SpanRecord& rec : collect(trace_id)) {
    if (!std::binary_search(shipped.begin(), shipped.end(), rec.span_id)) {
      spans.push_back(rec);
    }
  }
}

std::vector<SpanRecord> Recorder::collect_all() const { return snapshot(0); }

std::vector<SpanRecord> Recorder::snapshot(std::uint64_t trace_id) const {
  // Filtered inside each ring, so only the wanted records are copied and
  // sorted, however much else the rings hold.
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    rings = rings_;
  }
  std::vector<SpanRecord> out;
  for (const auto& ring : rings) ring->snapshot(out, trace_id);
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.span_id < b.span_id;
            });
  return out;
}

std::uint64_t Recorder::dropped() const {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    rings = rings_;
  }
  std::uint64_t dropped = 0;
  for (const auto& ring : rings) {
    const std::uint64_t h = ring->head.load(std::memory_order_acquire);
    const std::uint64_t cap = ring->mask + 1;
    if (h > cap) dropped += h - cap;
  }
  return dropped;
}

Recorder& recorder() {
  static Recorder global(2048);
  return global;
}

}  // namespace hypercover::obs

#pragma once
// Observability span recorder: lock-free per-thread ring buffers of
// fixed-size span records, written by RAII `Span` scopes on the serving
// hot path and drained by a collector thread (per-request, to ship spans
// on a Result frame; or at drain, to export a Chrome-trace file).
//
// Hard boundary: nothing in this layer may flow into Solutions,
// transcripts, or digests. Spans and metrics are observation only — a
// solve with tracing enabled is bit-identical to the same solve with
// tracing disabled (locked by test, and by the determinism lint's
// obs-boundary rule: deterministic compute layers must not include or
// reference obs at all).
//
// Recording discipline:
//   - one ring per writer thread, fixed capacity, drop-oldest on wrap
//     (the writer never blocks and never allocates once its ring exists);
//   - each slot is a seqlock (sequence counter + atomic payload words),
//     so a concurrent collector either reads a consistent record or
//     skips the slot — no locks, no torn reads, TSan-clean;
//   - a span with trace_id == 0 is a no-op end to end, so un-traced
//     requests pay one branch per would-be span.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

namespace hypercover::obs {

/// Which process layer recorded a span — the Chrome-trace `pid` lane.
enum class Proc : std::uint8_t {
  kClient = 0,
  kRouter = 1,
  kServer = 2,
};

/// Maximum span-name length including the NUL. Names are short static
/// labels ("server.queue_wait"); the fixed array keeps SpanRecord
/// trivially copyable and the hot path allocation-free.
inline constexpr std::size_t kSpanNameBytes = 24;

/// One completed span. Trivially copyable: this exact struct travels
/// through the seqlock slots, the wire (Result span tail), and the
/// Chrome-trace exporter.
struct SpanRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  // 0 = trace root
  std::uint64_t start_ns = 0;        // steady-clock, comparable host-wide
  std::uint64_t dur_ns = 0;
  std::uint64_t arg = 0;  // span-specific annotation (attempt #, round #, ...)
  std::uint8_t proc = 0;  // obs::Proc
  char name[kSpanNameBytes] = {};  // NUL-terminated, truncated to fit

  void set_name(const char* s) {
    std::strncpy(name, s, kSpanNameBytes - 1);
    name[kSpanNameBytes - 1] = '\0';
  }
};

/// Steady-clock nanoseconds. The single audited timestamp source for the
/// obs layer — every span start/duration flows through here, and nothing
/// downstream of here may feed a Solution, transcript, or digest.
[[nodiscard]] std::uint64_t now_ns();

/// Process-unique 64-bit ids for traces and spans. Mixes a per-process
/// seed with a counter, so ids minted by the client, router, and server
/// for one request cannot collide.
[[nodiscard]] std::uint64_t new_id();

/// Fixed-capacity multi-writer span store: one drop-oldest ring per
/// writer thread, seqlock slots, lock-free record(), mutex only on the
/// (cold) first record from a new thread and in collect().
class Recorder {
 public:
  /// `capacity_per_thread` is rounded up to a power of two (minimum 8).
  explicit Recorder(std::size_t capacity_per_thread = 2048);
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  ~Recorder();

  /// Writes one record into the calling thread's ring. Lock-free and
  /// allocation-free after the thread's first call. No-op when
  /// rec.trace_id == 0.
  void record(const SpanRecord& rec);

  /// Snapshot of every record with this trace id, across all threads'
  /// rings, sorted by (start_ns, span_id). Records stay in their rings
  /// (they age out by wraparound), so collecting one trace never
  /// disturbs another.
  [[nodiscard]] std::vector<SpanRecord> collect(std::uint64_t trace_id) const;

  /// Snapshot of every live record across all rings, sorted the same
  /// way. Drain-time export for the daemons' --trace-out.
  [[nodiscard]] std::vector<SpanRecord> collect_all() const;

  /// Records overwritten before any collect saw them (drop-oldest).
  [[nodiscard]] std::uint64_t dropped() const;

  [[nodiscard]] std::size_t capacity_per_thread() const { return capacity_; }

 private:
  struct Ring;
  Ring& local_ring();
  /// Sorted live records of `trace_id` (of every trace when 0).
  [[nodiscard]] std::vector<SpanRecord> snapshot(std::uint64_t trace_id) const;

  std::size_t capacity_;
  std::uint64_t id_;  // process-unique, keys the thread-local ring cache
  mutable std::mutex reg_mu_;
  std::vector<std::shared_ptr<Ring>> rings_;
};

/// The process-global recorder every serving layer records into.
[[nodiscard]] Recorder& recorder();

/// RAII span scope. Construct with the ids of the enclosing trace; the
/// destructor stamps the duration and records. A zero trace_id disables
/// the span entirely (id() returns 0, nothing is recorded).
class Span {
 public:
  Span(Recorder& rec, const char* name, Proc proc, std::uint64_t trace_id,
       std::uint64_t parent_span_id, std::uint64_t arg = 0)
      : rec_(&rec) {
    if (trace_id == 0) return;
    record_.trace_id = trace_id;
    record_.span_id = new_id();
    record_.parent_span_id = parent_span_id;
    record_.arg = arg;
    record_.proc = static_cast<std::uint8_t>(proc);
    record_.set_name(name);
    record_.start_ns = now_ns();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// This span's id — what child spans pass as parent_span_id.
  /// 0 when the span is disabled.
  [[nodiscard]] std::uint64_t id() const { return record_.span_id; }

  void set_arg(std::uint64_t arg) { record_.arg = arg; }

  /// Closes and records the span now (idempotent; the destructor then
  /// does nothing). Needed when the span must be complete before its
  /// record is shipped — e.g. the final batch slice closes before
  /// on_complete fires, so the server-side collector sees it.
  void end() {
    if (record_.trace_id == 0 || ended_) return;
    ended_ = true;
    record_.dur_ns = now_ns() - record_.start_ns;
    rec_->record(record_);
  }

 private:
  Recorder* rec_;
  SpanRecord record_{};
  bool ended_ = false;
};

}  // namespace hypercover::obs

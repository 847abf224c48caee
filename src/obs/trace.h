// Pipeline flight recorder: hierarchical trace spans with thread-local
// append-only buffers, exported as Chrome trace-event JSON.
//
// A TraceSpan is an RAII scope marker. Instrumented code creates one per
// pipeline stage (KPT estimation, θ refinement, RR sampling batches, store
// top-ups, greedy selection rounds, regret evaluation, serve queue/run
// phases) and optionally annotates it with numeric counters (sets sampled,
// θ, heap pops, arena bytes):
//
//   obs::TraceSpan span("store_top_up");
//   ...
//   span.Counter("sampled", static_cast<double>(sampled));
//
// Cost model — the reason this can sit on hot paths permanently:
//   * Disabled (the default): the constructor is ONE relaxed atomic load
//     and a branch; the destructor is a plain branch. No allocation, no
//     lock, no clock read. Recording never touches RNG or allocator
//     state, so allocations are bit-identical with tracing on or off.
//   * Enabled: two steady_clock reads per span plus one append into the
//     calling thread's own buffer — no lock and no shared cache line on
//     the append path. Buffers are chunked arrays published with
//     release/acquire, so a collector thread can snapshot while workers
//     record (events are immutable once published).
//
// Hierarchy: spans nest per thread (a thread-local stack assigns each
// span an id and its parent's id). The Chrome trace viewer additionally
// nests "X" events by time containment per tid, so the exported JSON
// shows the tree directly in Perfetto / chrome://tracing.
//
// Profiling without global tracing: a ProfileScope installs a
// thread-confined StageProfile sink; every span that closes on that
// thread while the scope is active adds its duration to the per-stage
// aggregate. The serving layer uses this for the per-request
// `"profile": true` stage breakdown — concurrent requests profile
// independently without enabling process-wide recording.
//
// Lifecycle discipline: Enable/Disable/Clear and Collect/ChromeTraceJson
// may run concurrently with recording, but Clear() must not race active
// spans on other threads (quiesce first — same contract as
// ServiceMetrics::Reset). Span names and counter keys MUST be string
// literals (or otherwise outlive the recorder): the recorder stores the
// pointers, never copies.

#ifndef TIRM_OBS_TRACE_H_
#define TIRM_OBS_TRACE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace tirm {
namespace obs {

class StageProfile;

namespace trace_internal {
/// Fast gate for every instrumentation site. Bit 0: global recording is
/// enabled. Bits 1+: number of live ProfileScopes anywhere in the process
/// (shifted left by one). Fully disabled — the common case — is exactly
/// zero, so a disabled TraceSpan constructor compiles to a single relaxed
/// atomic load and branch.
extern std::atomic<std::uint32_t> g_active;
extern thread_local StageProfile* tl_profile_sink;
}  // namespace trace_internal

/// One numeric annotation on a span ("theta" = 81920, ...). The key must
/// be a string literal.
struct TraceCounter {
  const char* key = nullptr;
  double value = 0.0;
};

/// A completed span as stored in the thread buffers and returned by
/// Collect(). Trivially copyable: the chunked buffers hold these by value.
struct TraceEvent {
  static constexpr int kMaxCounters = 6;
  static constexpr std::size_t kLabelSize = 32;

  const char* name = nullptr;      ///< string literal from the span
  std::uint64_t start_ns = 0;      ///< steady ns since TraceRecorder epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t span_id = 0;       ///< per-thread id, 1-based (0 = none)
  std::uint32_t parent_id = 0;     ///< enclosing span's id (0 = root)
  std::int32_t tid = 0;            ///< dense thread index (CurrentThreadIndex)
  std::int32_t num_counters = 0;
  std::array<TraceCounter, kMaxCounters> counters{};
  const char* label_key = nullptr;          ///< optional string annotation
  std::array<char, kLabelSize> label{};     ///< NUL-terminated, truncated
};

/// Aggregate of one span name across a collected trace (for
/// --print_profile and bench "profile" sections).
struct StageStats {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
};

/// Process-wide trace recorder. All methods are thread-safe; see the file
/// comment for the Clear() quiescence requirement.
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  /// Starts recording. Spans opened before Enable() are not recorded
  /// (the decision is taken at span construction).
  void Enable() { trace_internal::g_active.fetch_or(1u, std::memory_order_relaxed); }
  void Disable() { trace_internal::g_active.fetch_and(~1u, std::memory_order_relaxed); }
  static bool enabled() {
    return (trace_internal::g_active.load(std::memory_order_relaxed) & 1u) != 0;
  }

  /// Snapshot of every published event, ordered by (tid, record order).
  std::vector<TraceEvent> Collect() const TIRM_EXCLUDES(mutex_);

  /// Per-name aggregation of Collect(), descending total time.
  std::vector<StageStats> Summary() const;

  /// The whole trace as a Chrome trace-event JSON document
  /// ({"traceEvents":[...]}, "X" complete events, ts/dur in microseconds)
  /// loadable in Perfetto / chrome://tracing.
  std::string ChromeTraceJson() const;

  /// Writes ChromeTraceJson() to `path`.
  [[nodiscard]] Status WriteChromeTrace(const std::string& path) const;

  /// Forgets every recorded event (buffers are retained for reuse). Must
  /// not race active spans: disable and quiesce instrumented work first.
  void Clear() TIRM_EXCLUDES(mutex_);

  /// Events dropped because a thread hit its buffer cap.
  std::uint64_t dropped() const TIRM_EXCLUDES(mutex_);

  /// The steady-clock instant all event timestamps are relative to.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  // -- internal (instrumentation plumbing) ---------------------------------

  /// Per-thread buffer: chunked so published events never relocate, with
  /// a release/acquire publication protocol (single writer, any readers).
  class ThreadLog {
   public:
    static constexpr std::size_t kChunkShift = 10;  // 1024 events per chunk
    static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
    static constexpr std::size_t kMaxChunks = 1024;  // ~1M events per thread

    explicit ThreadLog(std::int32_t tid) : tid_(tid) {}
    ~ThreadLog();
    ThreadLog(const ThreadLog&) = delete;
    ThreadLog& operator=(const ThreadLog&) = delete;

    void Append(const TraceEvent& event);
    std::int32_t tid() const { return tid_; }

    // Owning-thread span-stack state (no synchronization: only the owner
    // touches these, and only while it is alive).
    std::uint32_t NextSpanId() { return ++last_span_id_; }
    std::uint32_t CurrentParent() const {
      return stack_.empty() ? 0 : stack_.back();
    }
    void PushSpan(std::uint32_t id) { stack_.push_back(id); }
    void PopSpan(std::uint32_t id) {
      if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
    }

   private:
    friend class TraceRecorder;

    const std::int32_t tid_;
    std::atomic<std::uint64_t> count_{0};    // published events
    std::atomic<std::uint64_t> dropped_{0};
    std::array<std::atomic<TraceEvent*>, kMaxChunks> chunks_{};
    // unguarded: owning-thread-only span bookkeeping (see above).
    std::uint32_t last_span_id_ = 0;
    std::vector<std::uint32_t> stack_;
  };

  /// The calling thread's log (registered on first use; owned by the
  /// recorder, so it outlives the thread).
  ThreadLog& LocalLog() TIRM_EXCLUDES(mutex_);

 private:
  TraceRecorder();

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<ThreadLog>> logs_ TIRM_GUARDED_BY(mutex_);
  const std::chrono::steady_clock::time_point epoch_;
};

/// Thread-confined per-stage duration aggregate fed by closing TraceSpans
/// while a ProfileScope is installed. Stage order is first-seen.
class StageProfile {
 public:
  struct Stage {
    const char* name = nullptr;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };

  void Add(const char* name, std::uint64_t dur_ns);
  const std::vector<Stage>& stages() const { return stages_; }
  bool empty() const { return stages_.empty(); }

 private:
  std::vector<Stage> stages_;
};

/// RAII installer of a StageProfile as the calling thread's span sink.
/// Scopes nest (the previous sink is restored on destruction) and must be
/// destroyed on the thread that created them.
class ProfileScope {
 public:
  explicit ProfileScope(StageProfile* profile);
  ~ProfileScope();
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  StageProfile* previous_;
};

/// RAII span. See the file comment for the cost model; name/counter-key
/// arguments must be string literals.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (trace_internal::g_active.load(std::memory_order_relaxed) == 0) return;
    Open(name);  // out-of-line slow path
  }
  ~TraceSpan() {
    if (mode_ != 0) Close();
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric annotation (dropped when recording is off or the
  /// per-span capacity is exhausted).
  void Counter(const char* key, double value) {
    if (mode_ == 0 || event_.num_counters >= TraceEvent::kMaxCounters) return;
    event_.counters[static_cast<std::size_t>(event_.num_counters++)] = {key,
                                                                        value};
  }

  /// Attaches one short string annotation (truncated to kLabelSize - 1
  /// bytes); `key` must be a string literal.
  void Label(const char* key, std::string_view value) {
    if (mode_ == 0) return;
    event_.label_key = key;
    const std::size_t n =
        std::min(value.size(), TraceEvent::kLabelSize - 1);
    std::memcpy(event_.label.data(), value.data(), n);
    event_.label[n] = '\0';
  }

  bool active() const { return mode_ != 0; }

 private:
  static constexpr std::uint8_t kRecord = 1;   // append to the global trace
  static constexpr std::uint8_t kProfile = 2;  // feed the thread's sink

  void Open(const char* name);
  void Close();

  std::uint8_t mode_ = 0;
  TraceRecorder::ThreadLog* log_ = nullptr;  // set iff kRecord
  std::chrono::steady_clock::time_point start_{};
  TraceEvent event_{};
};

/// Records a completed event with explicit endpoints on the calling
/// thread's buffer — for phases measured across threads (e.g. the serve
/// queue wait, timed from admission on the client thread to dequeue on the
/// worker). No-op when recording is disabled.
void EmitEvent(const char* name, std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end,
               std::initializer_list<TraceCounter> counters = {});

/// Aggregates a collected event list by span name (descending total
/// time). Exposed for tests and benches that post-process Collect().
std::vector<StageStats> AggregateStages(const std::vector<TraceEvent>& events);

}  // namespace obs
}  // namespace tirm

#endif  // TIRM_OBS_TRACE_H_

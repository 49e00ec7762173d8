// In-memory spans for the benchmark's traced run. The worker opens a span
// around each call into a layer's public functions, keeps every span in
// memory, and writes them all out once, when the run ends. Analysis (self
// times, per-layer metrics) happens in perfbench/run.py.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;     ///< "<layer>.<call>", e.g. "engine.drain"
  double start = 0.0;   ///< seconds since the recorder was created
  double end = 0.0;
  int parent = -1;      ///< index of the enclosing span; -1 for the root
  /// Ran on a pool thread, concurrently with its siblings (shard drains,
  /// sweep cells); main-thread spans never overlap their siblings.
  bool worker = false;
  std::int64_t index = -1;  ///< shard or cell index of a worker span
  std::string label;        ///< free-form detail, e.g. a cell's policy
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Seconds since construction; safe to call from any thread.
  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  /// Opens a main-thread span under the innermost open one.
  int open(std::string name);
  void close(int id);
  /// The innermost open main-thread span (-1 when none is open).
  int current() const { return open_.empty() ? -1 : open_.back(); }

  /// Adds a finished worker span under `parent`. Call from the main
  /// thread after the pool that ran it has joined.
  int add_worker(std::string name, int parent, double start, double end,
                 std::int64_t index, std::string label = {});

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Writes {"spans": [...]} to `path`; throws std::runtime_error when
  /// the file cannot be written.
  void write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// A main-thread span for the lifetime of the object.
class Scope {
 public:
  Scope(SpanRecorder& recorder, std::string name)
      : recorder_(recorder), id_(recorder.open(std::move(name))) {}
  ~Scope() { recorder_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

/// Start and end of one job run on a pool thread.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

}  // namespace perfbench

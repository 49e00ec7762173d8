#include "spans.h"

#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9f", v);
  return buf;
}

}  // namespace

int SpanRecorder::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = current();
  span.start = now();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now();
  // Scopes nest, so the span closing is always the innermost open one.
  open_.pop_back();
}

int SpanRecorder::add_worker(std::string name, int parent, double start,
                             double end, std::int64_t index,
                             std::string label) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.start = start;
  span.end = end;
  span.worker = true;
  span.index = index;
  span.label = std::move(label);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << quoted(s.name)
        << ", \"start\": " << number(s.start) << ", \"end\": " << number(s.end)
        << ", \"parent\": " << s.parent
        << ", \"worker\": " << (s.worker ? "true" : "false")
        << ", \"index\": " << s.index << ", \"label\": " << quoted(s.label)
        << '}' << (i + 1 < spans_.size() ? "," : "") << '\n';
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench

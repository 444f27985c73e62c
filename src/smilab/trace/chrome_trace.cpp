#include "smilab/trace/chrome_trace.h"

#include <cstdio>

#include "smilab/sim/system.h"

namespace smilab {

namespace {

void append_event(std::string& out, bool& first, const std::string& name,
                  const char* category, int pid, int tid, double ts_us,
                  double dur_us) {
  char buf[384];
  std::snprintf(buf, sizeof buf,
                "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                "\"pid\": %d, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f}",
                first ? "" : ",", name.c_str(), category, pid, tid, ts_us,
                dur_us);
  first = false;
  out += buf;
}

std::string sanitized(std::string name) {
  for (char& c : name) {
    if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) c = '_';
  }
  return name;
}

}  // namespace

std::string to_chrome_trace(const System& sys) {
  std::string out = "{\"traceEvents\": [";
  bool first = true;

  // Task lifetimes, grouped by node (pid = node, tid = task id + 1).
  // Crash-killed tasks render too, flagged by category, ending at the
  // crash instant; tasks still running at trace time are omitted.
  for (int i = 0; i < sys.task_count(); ++i) {
    const TaskId id{i};
    const TaskStats& stats = sys.task_stats(id);
    if (!stats.finished && !stats.failed) continue;
    const double start_us = static_cast<double>(stats.start_time.ns()) / 1e3;
    const double dur_us =
        static_cast<double>((stats.end_time - stats.start_time).ns()) / 1e3;
    std::string name = sanitized(sys.task_name(id));
    if (stats.failed) name += " [killed]";
    append_event(out, first, name, stats.failed ? "task_failed" : "task",
                 sys.task_node(id), i + 1, start_us, dur_us);
  }

  // SMM intervals (tid 0 on each node's row).
  for (const SmmInterval& interval : sys.smm_accounting().intervals()) {
    append_event(out, first, "SMM", "smm", interval.node, 0,
                 static_cast<double>(interval.enter.ns()) / 1e3,
                 static_cast<double>(interval.duration().ns()) / 1e3);
  }

  // Injected-fault intervals share the nodes' tid-0 noise row. Still-open
  // intervals close at the current simulated time for rendering.
  for (const FaultRecord& rec : sys.fault_log()) {
    const SimTime end = rec.end >= SimTime::zero() ? rec.end : sys.now();
    append_event(out, first, to_string(rec.kind), "fault", rec.node, 0,
                 static_cast<double>(rec.start.ns()) / 1e3,
                 static_cast<double>((end - rec.start).ns()) / 1e3);
  }

  out += "\n]}\n";
  return out;
}

}  // namespace smilab

#include "recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "runtime/abi.h"

namespace pb {
namespace {

enum Kind : std::uint8_t { kKernel, kParallel, kImplicit, kBarrier, kTask };

const char* kind_name(Kind k) {
  switch (k) {
    case kKernel: return "kernel";
    case kParallel: return "parallel";
    case kImplicit: return "implicit task";
    case kBarrier: return "barrier";
    case kTask: return "task";
  }
  return "?";
}

struct Open {
  Kind kind;
  std::int64_t t0;
  std::int64_t child_ns = 0;
  // Implicit tasks only: self time of the barriers / tasks nested in them.
  std::int64_t barrier_self_ns = 0;
  std::int64_t task_self_ns = 0;
  const char* name = nullptr;
};

struct Span {
  std::int64_t t0, t1, self_ns;
  std::int64_t barrier_self_ns, task_self_ns;
  const char* name;
  Kind kind;
};

struct ThreadBuf {
  std::int32_t gtid = -1;
  std::vector<Open> stack;
  std::vector<Span> spans;
  std::int64_t created = 0, claims = 0, attempts = 0, successes = 0;
  std::int64_t master_barriers = 0, unmatched = 0;

  void reset() {
    stack.clear();
    spans.clear();
    created = claims = attempts = successes = master_barriers = unmatched = 0;
  }

  void push(Kind kind, std::int64_t now, const char* name = nullptr) {
    Open o{kind, now};
    o.name = name;
    stack.push_back(o);
  }

  void pop(Kind kind, std::int64_t now) {
    if (stack.empty() || stack.back().kind != kind) {
      ++unmatched;
      return;
    }
    const Open o = stack.back();
    stack.pop_back();
    const std::int64_t dur = now - o.t0;
    const std::int64_t self = dur - o.child_ns;
    if (!stack.empty()) stack.back().child_ns += dur;
    if (kind == kBarrier || kind == kTask) {
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (it->kind != kImplicit) continue;
        (kind == kBarrier ? it->barrier_self_ns : it->task_self_ns) += self;
        break;
      }
    }
    spans.push_back(
        Span{o.t0, now, self, o.barrier_self_ns, o.task_self_ns, o.name, kind});
  }
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
int g_pass = 0;
thread_local ThreadBuf* tls_buf = nullptr;

ThreadBuf& local() {
  if (tls_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    tls_buf = g_bufs.back().get();
  }
  return *tls_buf;
}

void record(ThreadBuf& b, std::int32_t ev, std::int32_t tid) {
  const std::int64_t now = now_ns();
  switch (ev) {
    case ZOMP_EV_PARALLEL_BEGIN: b.push(kParallel, now); break;
    case ZOMP_EV_PARALLEL_END: b.pop(kParallel, now); break;
    case ZOMP_EV_IMPLICIT_TASK_BEGIN: b.push(kImplicit, now); break;
    case ZOMP_EV_IMPLICIT_TASK_END: b.pop(kImplicit, now); break;
    case ZOMP_EV_BARRIER_ENTER:
      b.push(kBarrier, now);
      if (tid == 0) ++b.master_barriers;  // every episode includes tid 0
      break;
    case ZOMP_EV_BARRIER_WAIT_END: b.pop(kBarrier, now); break;
    case ZOMP_EV_TASK_SCHEDULE: b.push(kTask, now); break;
    case ZOMP_EV_TASK_COMPLETE: b.pop(kTask, now); break;
    case ZOMP_EV_TASK_CREATE: ++b.created; break;
    case ZOMP_EV_DISPATCH_CLAIM: ++b.claims; break;
    case ZOMP_EV_STEAL_ATTEMPT: ++b.attempts; break;
    case ZOMP_EV_STEAL_SUCCESS: ++b.successes; break;
    default: break;
  }
}

/// The tool callback. The runtime calls it from C: an allocation failure in
/// a buffer is counted as an unmatched event instead of unwinding into it.
void on_event(std::int32_t ev, std::int32_t gtid, std::int32_t tid,
              std::int64_t /*arg0*/, std::int64_t /*arg1*/,
              void* /*data*/) noexcept {
  try {
    ThreadBuf& b = local();
    b.gtid = gtid;
    record(b, ev, tid);
  } catch (...) {
    if (tls_buf != nullptr) ++tls_buf->unmatched;
  }
}

constexpr std::int32_t kEvents[] = {
    ZOMP_EV_PARALLEL_BEGIN, ZOMP_EV_PARALLEL_END,   ZOMP_EV_IMPLICIT_TASK_BEGIN,
    ZOMP_EV_IMPLICIT_TASK_END, ZOMP_EV_DISPATCH_CLAIM, ZOMP_EV_BARRIER_ENTER,
    ZOMP_EV_BARRIER_WAIT_END, ZOMP_EV_TASK_CREATE,  ZOMP_EV_TASK_SCHEDULE,
    ZOMP_EV_TASK_COMPLETE,  ZOMP_EV_STEAL_ATTEMPT,  ZOMP_EV_STEAL_SUCCESS,
};

}  // namespace

Recorder& Recorder::instance() {
  static Recorder r;
  return r;
}

void Recorder::set_enabled(bool on) {
  static const bool started = zomp_start_tool(nullptr, nullptr) != 0;
  (void)started;
  for (std::int32_t ev : kEvents) zomp_set_callback(ev, on ? &on_event : nullptr);
}

void Recorder::begin_pass(int pass) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_pass = pass;
  for (auto& b : g_bufs) b->reset();
}

void Recorder::kernel_begin(const char* name) {
  local().push(kKernel, now_ns(), name);
}

void Recorder::kernel_end() { local().pop(kKernel, now_ns()); }

PassTrace Recorder::end_pass() {
  std::lock_guard<std::mutex> lock(g_mu);
  PassTrace t;
  std::vector<const Span*> regions;
  std::vector<const Span*> members;
  for (const auto& b : g_bufs) {
    t.barrier_episodes += b->master_barriers;
    t.claims += b->claims;
    t.tasks_created += b->created;
    t.steal_attempts += b->attempts;
    t.steal_successes += b->successes;
    t.unmatched += b->unmatched + static_cast<std::int64_t>(b->stack.size());
    for (const Span& s : b->spans) {
      if (s.kind == kParallel) regions.push_back(&s);
      if (s.kind == kImplicit) {
        members.push_back(&s);
        t.member_ns += static_cast<double>(s.t1 - s.t0);
        t.barrier_self_ns += static_cast<double>(s.barrier_self_ns);
        t.task_self_ns += static_cast<double>(s.task_self_ns);
      }
    }
  }
  t.regions = static_cast<std::int64_t>(regions.size());

  // Regions run one at a time from the benchmark thread, so a region's
  // members are the implicit tasks that began inside its interval.
  std::sort(members.begin(), members.end(),
            [](const Span* a, const Span* b) { return a->t0 < b->t0; });
  for (const Span* r : regions) {
    auto it = std::lower_bound(
        members.begin(), members.end(), r->t0,
        [](const Span* m, std::int64_t t0) { return m->t0 < t0; });
    std::int64_t last_begin = r->t0;
    double busy_max = 0, busy_sum = 0;
    int n = 0;
    for (; it != members.end() && (*it)->t0 <= r->t1; ++it) {
      const Span& m = **it;
      last_begin = std::max(last_begin, m.t0);
      const double busy = static_cast<double>(m.t1 - m.t0 - m.barrier_self_ns);
      busy_max = std::max(busy_max, busy);
      busy_sum += busy;
      ++n;
    }
    t.fork_latency_ns.push_back(static_cast<double>(last_begin - r->t0));
    if (n > 0 && busy_sum > 0) t.imbalance.push_back(busy_max * n / busy_sum);
  }
  return t;
}

bool Recorder::write_chrome_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(g_mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = INT64_MAX;
  for (const auto& b : g_bufs) {
    for (const Span& s : b->spans) origin = std::min(origin, s.t0);
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const auto& b : g_bufs) {
    for (const Span& s : b->spans) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"pass\":%d,"
                   "\"self_us\":%.3f}}",
                   first ? "" : ",\n", s.name ? s.name : kind_name(s.kind),
                   kind_name(s.kind), b->gtid, (s.t0 - origin) / 1e3,
                   (s.t1 - s.t0) / 1e3, g_pass, s.self_ns / 1e3);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace pb

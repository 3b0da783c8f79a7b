#include "harness.h"

#include <linux/sockios.h>
#include <malloc.h>
#include <pthread.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "serve/loadgen.h"

namespace perfbench {

using ldpr::serve::IngestRequest;
using ldpr::serve::IngestResult;

// ---- Clocks ---------------------------------------------------------------

namespace {

long long ClockNs(clockid_t clock) {
  timespec ts{};
  if (::clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error(std::string("clock_gettime failed: ") +
                             std::strerror(errno));
  }
  return static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace

long long NowNs() { return ClockNs(CLOCK_MONOTONIC); }

long long SelfThreadCpuNs() { return ClockNs(CLOCK_THREAD_CPUTIME_ID); }

long long ThreadCpuNs(std::thread& thread) {
  clockid_t clock;
  if (::pthread_getcpuclockid(thread.native_handle(), &clock) != 0) {
    throw std::runtime_error("pthread_getcpuclockid failed");
  }
  return ClockNs(clock);
}

long long ProcessCpuNs() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<long long>(tv.tv_sec) * 1000000000LL +
           static_cast<long long>(tv.tv_usec) * 1000LL;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

long long HeapInUseBytes() {
  const struct mallinfo2 info = ::mallinfo2();
  return static_cast<long long>(info.uordblks + info.hblkhd);
}

int FoIsaTier() {
#if defined(__x86_64__) && defined(__GNUC__)
  const bool avx512 = __builtin_cpu_supports("avx512dq") != 0;
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  if (const char* force = std::getenv("LDPR_OLH_KERNEL")) {
    const std::string forced(force);
    if (forced == "scalar") return 0;
    if (forced == "avx2" && avx2) return 1;
    if (forced == "avx512" && avx512) return 2;
  }
  if (avx512) return 2;
  if (avx2) return 1;
#endif
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// ---- Sealed output ---------------------------------------------------------

void AddField(Fields& out, const std::string& name, long long value) {
  out.emplace_back(name, std::to_string(value));
}

void AddField(Fields& out, const std::string& name, double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  out.emplace_back(name, buffer);
}

void AddField(Fields& out, const std::string& name,
              const std::vector<long long>& values) {
  AddField(out, name + ".size", static_cast<long long>(values.size()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    AddField(out, name + "[" + std::to_string(i) + "]", values[i]);
  }
}

void AddField(Fields& out, const std::string& name,
              const std::vector<double>& values) {
  AddField(out, name + ".size", static_cast<long long>(values.size()));
  for (std::size_t i = 0; i < values.size(); ++i) {
    AddField(out, name + "[" + std::to_string(i) + "]", values[i]);
  }
}

// ---- Tracing ---------------------------------------------------------------

int Tracer::Record(Span span) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> guard(mutex_);
  span.id = static_cast<int>(spans_.size());
  spans_.push_back(span);
  return span.id;
}

void Tracer::Finish(int id, long long start_ns, long long end_ns,
                    long long busy_ns) {
  if (id < 0) return;
  std::lock_guard<std::mutex> guard(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.busy_ns = busy_ns;
}

long long Tracer::SelfNs(int id) const {
  std::lock_guard<std::mutex> guard(mutex_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return 0;
  long long self = spans_[static_cast<std::size_t>(id)].Busy();
  // Children are recorded after their parent.
  for (std::size_t i = static_cast<std::size_t>(id) + 1; i < spans_.size();
       ++i) {
    if (spans_[i].parent == id) self -= spans_[i].Busy();
  }
  return self;
}

void Tracer::Write(const std::string& path,
                   const std::string& provenance) const {
  if (!enabled_ || path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"provenance\": " << provenance << "}\n";
  std::lock_guard<std::mutex> guard(mutex_);
  for (const Span& s : spans_) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"epoch\": " << s.epoch
        << ", \"batch\": " << s.batch << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"count\": " << s.count
        << ", \"busy_ns\": " << s.Busy() << "}\n";
  }
}

namespace {

constexpr auto kRelaxed = std::memory_order_relaxed;

/// Single-writer increment: a plain load and store, no locked RMW.
void Bump(std::atomic<long long>& cell, long long delta) {
  cell.store(cell.load(kRelaxed) + delta, kRelaxed);
}

}  // namespace

long long ClockReadNs() {
  static const long long cost = [] {
    constexpr int kCalls = 100000;
    std::vector<double> per_call;
    for (int rep = 0; rep < 5; ++rep) {
      const long long start = NowNs();
      for (int i = 0; i < kCalls; ++i) NowNs();
      per_call.push_back(static_cast<double>(NowNs() - start) / kCalls);
    }
    return static_cast<long long>(Median(per_call) + 0.5);
  }();
  return cost;
}

IngestResult TimingSink::Ingest(const IngestRequest& request) {
  if (!timing_.load(kRelaxed)) return inner_.Ingest(request);
  const long long call = calls_.load(kRelaxed);
  calls_.store(call + 1, kRelaxed);
  if (batch_calls_.load(kRelaxed) == 0) batch_start_.store(NowNs(), kRelaxed);
  Bump(batch_calls_, 1);
  IngestResult result;
  if (call % kSampleEvery != 0) {
    result = inner_.Ingest(request);
  } else {
    const long long start = NowNs();
    result = inner_.Ingest(request);
    const long long end = NowNs();
    const long long inside = std::max(0LL, end - start - clock_ns_);
    Bump(sampled_, 1);
    Bump(sampled_ns_, inside);
    Bump(batch_sampled_ns_, inside);
    batch_end_.store(end, kRelaxed);
  }
  if (batch_calls_.load(kRelaxed) == kBatch) RecordBatch();
  return result;
}

void TimingSink::BeginEpoch(long long epoch, int parent_span, bool timing) {
  epoch_.store(epoch, kRelaxed);
  parent_.store(parent_span, kRelaxed);
  batch_index_.store(0, kRelaxed);
  calls_.store(0, kRelaxed);
  sampled_.store(0, kRelaxed);
  sampled_ns_.store(0, kRelaxed);
  timing_.store(timing, kRelaxed);
}

std::pair<long long, long long> TimingSink::EndEpoch() {
  timing_.store(false, kRelaxed);
  if (batch_calls_.load(kRelaxed) > 0) RecordBatch();
  const long long calls = calls_.load(kRelaxed);
  const long long sampled = sampled_.load(kRelaxed);
  const long long inside =
      sampled > 0 ? sampled_ns_.load(kRelaxed) * calls / sampled : 0;
  return {inside, calls};
}

void TimingSink::RecordBatch() {
  Span span;
  span.name = "collector.sink";
  span.parent = parent_.load(kRelaxed);
  span.epoch = epoch_.load(kRelaxed);
  span.batch = batch_index_.load(kRelaxed);
  span.start_ns = batch_start_.load(kRelaxed);
  span.end_ns = batch_end_.load(kRelaxed);
  span.count = batch_calls_.load(kRelaxed);
  span.busy_ns = batch_sampled_ns_.load(kRelaxed) * kSampleEvery;
  tracer_.Record(span);
  Bump(batch_index_, 1);
  batch_calls_.store(0, kRelaxed);
  batch_sampled_ns_.store(0, kRelaxed);
}

// ---- Load generator threads ------------------------------------------------

namespace {

int ConnectUds(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("connect(" + path + ") failed: " +
                             std::strerror(err));
  }
  return fd;
}

}  // namespace

Sender::Sender(const std::string& uds_path, bool sample_backlog)
    : fd_(ConnectUds(uds_path)), sample_backlog_(sample_backlog) {
  thread_ = std::thread([this] { Loop(); });
}

Sender::~Sender() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  ::close(fd_);
}

void Sender::Post(std::span<const std::uint8_t> bytes,
                  std::barrier<>& last_chunk) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    job_ = bytes;
    last_chunk_ = &last_chunk;
    has_job_ = true;
    done_ = false;
  }
  cv_.notify_all();
}

SendStats Sender::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return done_; });
  return std::move(stats_);
}

void Sender::Loop() {
  while (true) {
    std::span<const std::uint8_t> job;
    std::barrier<>* last_chunk = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return has_job_ || stop_; });
      if (stop_) return;
      job = job_;
      last_chunk = last_chunk_;
      has_job_ = false;
    }
    SendStats stats;
    if (sample_backlog_) {
      stats.backlog.reserve(job.size() / kWriteChunk + 1);
    }
    const long long cpu_start = SelfThreadCpuNs();
    stats.start_ns = NowNs();
    std::size_t sent = 0;
    bool arrived = false;
    while (sent < job.size()) {
      const std::size_t want = std::min(kWriteChunk, job.size() - sent);
      if (!arrived && want == job.size() - sent) {
        last_chunk->arrive_and_wait();
        arrived = true;
      }
      const ssize_t n = ::send(fd_, job.data() + sent, want, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        stats.failed = true;
        break;
      }
      sent += static_cast<std::size_t>(n);
      if (sample_backlog_) {
        int queued = 0;
        if (::ioctl(fd_, SIOCOUTQ, &queued) == 0) {
          stats.backlog.push_back(queued);
        }
      }
    }
    if (!arrived) (void)last_chunk->arrive();  // failed early or empty job
    stats.end_ns = NowNs();
    stats.cpu_ns = SelfThreadCpuNs() - cpu_start;
    stats.bytes = static_cast<long long>(sent);
    {
      std::lock_guard<std::mutex> guard(mutex_);
      stats_ = std::move(stats);
      done_ = true;
    }
    cv_.notify_all();
  }
}

Scraper::Scraper(std::string admin_path, Tracer& tracer,
                 const std::atomic<long long>& epoch)
    : path_(std::move(admin_path)), tracer_(tracer), epoch_(epoch) {
  round_trip_ms_.reserve(4096);
  thread_ = std::thread([this] { Loop(); });
}

Scraper::~Scraper() { Stop(); }

void Scraper::Stop() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Scraper::Loop() {
  constexpr auto kInterval = std::chrono::milliseconds(50);
  auto next = std::chrono::steady_clock::now();
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (cv_.wait_until(lock, next, [this] { return stop_; })) return;
    }
    next += kInterval;
    const long long start = NowNs();
    bool ok = false;
    try {
      const std::string response =
          ldpr::serve::HttpGetOverUds(path_, "/metrics");
      ok = response.rfind("HTTP/1.0 200", 0) == 0 &&
           response.find("ldpr_ingest_reports_total") != std::string::npos;
    } catch (const std::exception&) {
      ok = false;
    }
    const long long end = NowNs();
    ++scrapes_;
    if (!ok) ++failures_;
    round_trip_ms_.push_back(static_cast<double>(end - start) / 1e6);
    Span span;
    span.name = "obs.scrape";
    span.epoch = epoch_.load(std::memory_order_relaxed);
    span.start_ns = start;
    span.end_ns = end;
    span.count = 1;
    tracer_.Record(span);
  }
}

}  // namespace perfbench

#include "machine.h"

#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

std::uint64_t next(std::uint64_t& state) {  // splitmix64
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The reference kernel. Its two parts touch memory the way the measured
/// program does most: 4 KB page copies over a buffer larger than a core's
/// caches (checkpoint restores), and first touches of fresh pages (golden
/// state prepared and freed per campaign, build and service buffers).
class Reference {
 public:
  Reference() : pages_(kPageCount * kPage, 1) {}

  std::array<double, MachineProbe::kParts> run() {
    std::array<double, MachineProbe::kParts> ms{};
    Clock::time_point start = Clock::now();
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t r = next(state_);
      std::memmove(&pages_[(r % kPageCount) * kPage],
                   &pages_[((r >> 32) % kPageCount) * kPage], kPage);
    }
    ms[0] = ms_since(start);

    start = Clock::now();
    void* fresh = mmap(nullptr, kFreshBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (fresh != MAP_FAILED) {
      auto* bytes = static_cast<volatile char*>(fresh);
      for (std::size_t i = 0; i < kFreshBytes; i += kPage) bytes[i] = 1;
      munmap(fresh, kFreshBytes);
    }
    ms[1] = ms_since(start);
    return ms;
  }

 private:
  static constexpr std::size_t kPage = 4096;
  static constexpr std::size_t kPageCount = 8192;  // 32 MB
  static constexpr std::size_t kFreshBytes = 4u << 20;

  std::vector<std::uint8_t> pages_;
  std::uint64_t state_ = 0xc0b1;
};

bool read_full(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t got = ::read(fd, bytes, size);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    bytes += got;
    size -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_full(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t put = ::write(fd, bytes, size);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    bytes += put;
    size -= static_cast<std::size_t>(put);
  }
  return true;
}

/// A child: one sample per request byte, until the parent closes the pipe
/// (or dies).
[[noreturn]] void child_main(int in, int out, pid_t parent) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(0);
  std::unique_ptr<Reference> reference;
  char request = 0;
  while (read_full(in, &request, 1)) {
    if (!reference) reference = std::make_unique<Reference>();
    const std::array<double, MachineProbe::kParts> ms = reference->run();
    if (!write_full(out, ms.data(), sizeof(ms))) break;
  }
  _exit(0);
}

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace

MachineProbe::MachineProbe(int threads) {
  const pid_t parent = getpid();
  for (int t = 0; t < std::max(threads, 1); ++t) {
    int down[2];
    int up[2];
    if (pipe(down) != 0) {
      stop_children();
      throw std::runtime_error("machine probe: no pipe");
    }
    if (pipe(up) != 0) {
      close(down[0]);
      close(down[1]);
      stop_children();
      throw std::runtime_error("machine probe: no pipe");
    }
    const pid_t pid = fork();
    if (pid < 0) {
      for (const int fd : {down[0], down[1], up[0], up[1]}) close(fd);
      stop_children();
      throw std::runtime_error("machine probe: fork failed");
    }
    if (pid == 0) {
      // Only the parent may hold the other children's pipes, or they
      // would not see it close them.
      for (const Child& other : children_) {
        close(other.to);
        close(other.from);
      }
      close(down[1]);
      close(up[0]);
      child_main(down[0], up[1], parent);
    }
    close(down[0]);
    close(up[1]);
    children_.push_back(Child{pid, down[1], up[0]});
  }
}

MachineProbe::~MachineProbe() { stop_children(); }

void MachineProbe::stop_children() {
  for (const Child& child : children_) {
    close(child.to);
    close(child.from);
  }
  for (const Child& child : children_) {
    int status = 0;
    while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
  }
  children_.clear();
}

void MachineProbe::start(double interval_s) {
  interval_s_ = interval_s;
  start_ = Clock::now();
  started_ = true;
  taken_ = 0;
  // Allocated once, here: the program's heap layout must not depend on
  // when samples fall due, as its results can depend on heap addresses
  // (README.md, Known defects), and the digest is taken during the run.
  for (std::vector<double>& part : parts_) part.reserve(kMaxSamples);
}

std::array<double, MachineProbe::kParts> MachineProbe::sample() {
  const char request = 's';
  for (const Child& child : children_) {
    if (!write_full(child.to, &request, 1)) {
      throw std::runtime_error("machine probe: child stopped");
    }
  }
  std::array<double, kParts> mean{};
  for (const Child& child : children_) {
    std::array<double, kParts> ms{};
    if (!read_full(child.from, ms.data(), sizeof(ms))) {
      throw std::runtime_error("machine probe: child stopped");
    }
    for (std::size_t k = 0; k < kParts; ++k) {
      mean[k] += ms[k] / static_cast<double>(children_.size());
    }
  }
  return mean;
}

void MachineProbe::take_one() {
  if (samples() == kMaxSamples) return;
  const std::array<double, kParts> ms = sample();
  if (taken_++ == 0) return;  // first touch of the children's buffers
  for (std::size_t k = 0; k < kParts; ++k) parts_[k].push_back(ms[k]);
}

double MachineProbe::take_due() {
  if (!started_) return 0.0;
  constexpr std::size_t kMaxAtOnce = 4;
  const Clock::time_point begin = Clock::now();
  const double elapsed = std::chrono::duration<double>(begin - start_).count();
  const std::size_t due = 1 + static_cast<std::size_t>(elapsed / interval_s_);
  for (std::size_t n = 0; taken_ < due && n < kMaxAtOnce; ++n) take_one();
  taken_ = std::max(taken_, due);
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

void MachineProbe::ensure(std::size_t n) {
  while (samples() < std::min(n, kMaxSamples)) take_one();
}

double MachineProbe::part_ms(std::size_t part) const {
  return median_of(parts_[part]);
}

double MachineProbe::reference_ms() const {
  double total = 0.0;
  for (std::size_t k = 0; k < kParts; ++k) total += part_ms(k);
  return total;
}

double MachineProbe::factor() const { return reference_ms() / kReferenceMs; }

}  // namespace perfbench

// Test helper: a writable region whose end abuts a PROT_NONE page, so any
// scan or verify that reads one byte past its permitted length faults.

#ifndef SMPX_TESTS_GUARDED_BUFFER_H_
#define SMPX_TESTS_GUARDED_BUFFER_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>

#include <gtest/gtest.h>

namespace smpx::testing {

/// Maps `pages + 1` pages and revokes all access to the last one.
class GuardedBuffer {
 public:
  explicit GuardedBuffer(size_t pages = 1) {
    page_ = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    size_ = page_ * pages;
    base_ = static_cast<unsigned char*>(
        mmap(nullptr, size_ + page_, PROT_READ | PROT_WRITE,
             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
    EXPECT_NE(base_, MAP_FAILED);
    EXPECT_EQ(mprotect(base_ + size_, page_, PROT_NONE), 0);
  }
  ~GuardedBuffer() { munmap(base_, size_ + page_); }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  /// A pointer `len` bytes before the guard page.
  unsigned char* EndMinus(size_t len) { return base_ + size_ - len; }
  size_t size() const { return size_; }

 private:
  unsigned char* base_ = nullptr;
  size_t size_ = 0;
  size_t page_ = 0;
};

}  // namespace smpx::testing

#endif  // SMPX_TESTS_GUARDED_BUFFER_H_

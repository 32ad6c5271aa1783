#pragma once

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

/// Clang thread-safety annotations for v6mon (DESIGN.md §12).
///
/// Every mutex-owning module declares, in its types, which capability
/// guards which field and which functions require or acquire it; the
/// dedicated `thread-safety` CI build compiles the tree with Clang's
/// `-Wthread-safety -Werror`, turning a forgotten lock or an
/// undocumented locking convention into a compile error. Under GCC (the
/// tier-1 toolchain) every macro expands to nothing and the wrappers
/// below are zero-cost shims over the standard primitives.
///
/// Conventions:
///  * Shared state is a field annotated `V6MON_GUARDED_BY(mu_)`; state
///    kept safe by a protocol instead of its own lock (e.g. ResultsDb,
///    whose writers hold the owning VpStore's epoch mutex and whose
///    readers start after finalize) is NOT annotated and carries a
///    comment naming that protocol.
///  * Private helpers called with a lock held are annotated
///    `V6MON_REQUIRES(mu_)` instead of re-locking.
///  * Lock-order intent between two capabilities is declared with
///    `V6MON_ACQUIRED_BEFORE`/`V6MON_ACQUIRED_AFTER` on the members
///    (enforced by Clang's -Wthread-safety-beta; documentation for
///    everyone else).
///  * `V6MON_NO_THREAD_SAFETY_ANALYSIS` is a last resort and needs a
///    comment, like a lint suppression needs a reason.

#if defined(__clang__) && (!defined(SWIG))
#define V6MON_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define V6MON_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

#define V6MON_CAPABILITY(x) V6MON_THREAD_ANNOTATION_(capability(x))
#define V6MON_SCOPED_CAPABILITY V6MON_THREAD_ANNOTATION_(scoped_lockable)
#define V6MON_GUARDED_BY(x) V6MON_THREAD_ANNOTATION_(guarded_by(x))
#define V6MON_PT_GUARDED_BY(x) V6MON_THREAD_ANNOTATION_(pt_guarded_by(x))
#define V6MON_ACQUIRED_BEFORE(...) \
  V6MON_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define V6MON_ACQUIRED_AFTER(...) \
  V6MON_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define V6MON_REQUIRES(...) \
  V6MON_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define V6MON_REQUIRES_SHARED(...) \
  V6MON_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define V6MON_ACQUIRE(...) \
  V6MON_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define V6MON_ACQUIRE_SHARED(...) \
  V6MON_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define V6MON_RELEASE(...) \
  V6MON_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define V6MON_RELEASE_SHARED(...) \
  V6MON_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define V6MON_TRY_ACQUIRE(...) \
  V6MON_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define V6MON_EXCLUDES(...) V6MON_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define V6MON_ASSERT_CAPABILITY(x) \
  V6MON_THREAD_ANNOTATION_(assert_capability(x))
#define V6MON_RETURN_CAPABILITY(x) V6MON_THREAD_ANNOTATION_(lock_returned(x))
#define V6MON_NO_THREAD_SAFETY_ANALYSIS \
  V6MON_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace v6mon::util {

/// Annotated exclusive mutex. Same cost and semantics as std::mutex; the
/// annotations let Clang check that every access to a
/// `V6MON_GUARDED_BY(mu)` field happens with `mu` held.
class V6MON_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() V6MON_ACQUIRE() { m_.lock(); }
  void unlock() V6MON_RELEASE() { m_.unlock(); }
  bool try_lock() V6MON_TRY_ACQUIRE(true) { return m_.try_lock(); }

  /// The wrapped std::mutex, for interop that needs the native type
  /// (e.g. std::condition_variable). Accessing guarded state through a
  /// native lock bypasses analysis — prefer UniqueLock::wait.
  [[nodiscard]] std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// Annotated reader/writer mutex over std::shared_mutex.
class V6MON_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() V6MON_ACQUIRE() { m_.lock(); }
  void unlock() V6MON_RELEASE() { m_.unlock(); }
  bool try_lock() V6MON_TRY_ACQUIRE(true) { return m_.try_lock(); }
  void lock_shared() V6MON_ACQUIRE_SHARED() { m_.lock_shared(); }
  void unlock_shared() V6MON_RELEASE_SHARED() { m_.unlock_shared(); }
  bool try_lock_shared() V6MON_TRY_ACQUIRE(true) { return m_.try_lock_shared(); }

 private:
  std::shared_mutex m_;
};

/// Scoped exclusive lock on a Mutex (std::lock_guard replacement).
class V6MON_SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& mu) V6MON_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~LockGuard() V6MON_RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Scoped exclusive lock on a SharedMutex (writer side).
class V6MON_SCOPED_CAPABILITY WriterLockGuard {
 public:
  explicit WriterLockGuard(SharedMutex& mu) V6MON_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterLockGuard() V6MON_RELEASE() { mu_.unlock(); }

  WriterLockGuard(const WriterLockGuard&) = delete;
  WriterLockGuard& operator=(const WriterLockGuard&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped shared (reader) lock on a SharedMutex.
class V6MON_SCOPED_CAPABILITY ReaderLockGuard {
 public:
  explicit ReaderLockGuard(SharedMutex& mu) V6MON_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderLockGuard() V6MON_RELEASE() { mu_.unlock_shared(); }

  ReaderLockGuard(const ReaderLockGuard&) = delete;
  ReaderLockGuard& operator=(const ReaderLockGuard&) = delete;

 private:
  SharedMutex& mu_;
};

/// Scoped exclusive lock that can sit in a condition-variable wait
/// (std::unique_lock replacement for the annotated Mutex). The capability
/// is held for the object's whole lifetime from the analysis' point of
/// view; `wait` releases and reacquires internally, which is exactly the
/// contract a cv waiter relies on.
class V6MON_SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) V6MON_ACQUIRE(mu)
      : mu_(mu), lock_(mu.native()) {}
  ~UniqueLock() V6MON_RELEASE() {}  // lock_'s destructor releases

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  /// Block on `cv` until notified. Callers loop on their predicate with
  /// the guarded fields read directly in the enclosing (capability-
  /// holding) scope — no predicate lambda, so the analysis sees every
  /// guarded access.
  void wait(std::condition_variable& cv) { cv.wait(lock_); }

 private:
  Mutex& mu_;
  std::unique_lock<std::mutex> lock_;
};

}  // namespace v6mon::util

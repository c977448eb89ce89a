// Copyright (c) prefrep contributors.
// Clang Thread Safety Analysis annotations and the annotated locking
// primitives built on them: Mutex, MutexLock, CondVar.
//
// The parallel solving stack (base/thread_pool.h,
// repair/parallel_solver.h, cache/block_cache.h) upholds its locking
// discipline on every path, not just the paths TSAN happens to
// exercise.  These macros move that discipline into the compiler: a
// field declared PREFREP_GUARDED_BY(mu) cannot be touched without
// holding mu, a function declared PREFREP_REQUIRES(mu) cannot be called
// without it, and the `tsa` CMake preset turns any violation into a
// build error (-Wthread-safety -Werror).  Under compilers without the
// analysis (GCC) the macros expand to nothing and the annotated types
// behave exactly like their std counterparts.
//
// Discipline (enforced by tools/check_prefrep.py, raw-concurrency
// check): outside src/base/, concurrent code uses Mutex / MutexLock /
// CondVar from this header and spawns work through base/thread_pool.h —
// never raw std::mutex, std::lock_guard, std::condition_variable or
// std::thread.  Raw primitives are invisible to the analysis, so one
// raw lock un-verifies every invariant the annotations state.

#ifndef PREFREP_BASE_THREAD_ANNOTATIONS_H_
#define PREFREP_BASE_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "base/macros.h"

// ---------------------------------------------------------------------
// Attribute macros.  Names follow the Clang documentation
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html) with the
// PREFREP_ prefix; each expands to the underlying attribute only when
// the compiler implements it.
// ---------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#define PREFREP_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define PREFREP_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/// Declares a data member readable/writable only while holding `x`.
#define PREFREP_GUARDED_BY(x) PREFREP_THREAD_ANNOTATION_(guarded_by(x))

/// Declares a pointer member whose *pointee* is guarded by `x`.
#define PREFREP_PT_GUARDED_BY(x) PREFREP_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Declares that callers must hold the given capabilities.
#define PREFREP_REQUIRES(...) \
  PREFREP_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Declares that callers must NOT hold the given capabilities
/// (deadlock prevention for functions that acquire them internally).
#define PREFREP_EXCLUDES(...) \
  PREFREP_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function acquires the capability (a lock operation).
#define PREFREP_ACQUIRE(...) \
  PREFREP_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases the capability (an unlock operation).
#define PREFREP_RELEASE(...) \
  PREFREP_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Function tries to acquire the capability; `b` is the success value.
#define PREFREP_TRY_ACQUIRE(...) \
  PREFREP_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Marks a type as a capability ("mutex" in diagnostics).
#define PREFREP_CAPABILITY(x) PREFREP_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type whose lifetime equals a critical section.
#define PREFREP_SCOPED_CAPABILITY \
  PREFREP_THREAD_ANNOTATION_(scoped_lockable)

/// Function returns a reference to the given capability.
#define PREFREP_RETURN_CAPABILITY(x) \
  PREFREP_THREAD_ANNOTATION_(lock_returned(x))

/// Lock-ordering declaration: this capability must be acquired after /
/// before the listed ones.
#define PREFREP_ACQUIRED_AFTER(...) \
  PREFREP_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define PREFREP_ACQUIRED_BEFORE(...) \
  PREFREP_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

/// Escape hatch — disables the analysis for one function.  Every use
/// must carry a justification comment (suppression discipline applies).
#define PREFREP_NO_THREAD_SAFETY_ANALYSIS \
  PREFREP_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace prefrep {

/// An annotated exclusive mutex over std::mutex.  Lowercase
/// lock()/unlock()/try_lock() keep it a standard Lockable, so it
/// composes with std facilities (CondVar below waits on it directly);
/// the annotations make every acquisition visible to the analysis.
class PREFREP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  PREFREP_DISALLOW_COPY(Mutex);

  void lock() PREFREP_ACQUIRE() { mu_.lock(); }
  void unlock() PREFREP_RELEASE() { mu_.unlock(); }
  bool try_lock() PREFREP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII critical section over a Mutex; the only way the library takes a
/// lock (bare Mutex::lock() calls do not unwind on early return).
class PREFREP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PREFREP_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PREFREP_RELEASE() { mu_.unlock(); }
  PREFREP_DISALLOW_COPY(MutexLock);

 private:
  Mutex& mu_;
};

/// Condition variable bound to the annotated Mutex.  Wait() declares
/// the mutex requirement, so a caller that forgot to take the lock is a
/// compile error under the analysis — not a lost wakeup at runtime.
class CondVar {
 public:
  CondVar() = default;
  PREFREP_DISALLOW_COPY(CondVar);

  /// Atomically releases `mu`, blocks until notified, and reacquires
  /// `mu` before returning (std::condition_variable_any semantics; the
  /// capability is held again on return, which is what the annotation
  /// states).
  void Wait(Mutex& mu) PREFREP_REQUIRES(mu) { cv_.wait(mu); }

  /// Predicate loop: returns once `pred()` holds, with `mu` held.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) PREFREP_REQUIRES(mu) {
    cv_.wait(mu, std::move(pred));
  }

  /// Like Wait(mu), but returns after `timeout` at the latest (callers
  /// re-check their condition either way).
  template <typename Rep, typename Period>
  void WaitFor(Mutex& mu, std::chrono::duration<Rep, Period> timeout)
      PREFREP_REQUIRES(mu) {
    cv_.wait_for(mu, timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace prefrep

#endif  // PREFREP_BASE_THREAD_ANNOTATIONS_H_

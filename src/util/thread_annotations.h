/**
 * @file
 * Portable Clang thread-safety-analysis annotation macros.
 *
 * The determinism contract of the parallel execution layer (results are
 * bit-identical at any thread count) is only as strong as the lock
 * discipline around the shared state it touches: the ThreadPool task
 * queue, the rank engine's session cache, the logging sink. These macros
 * let us state that discipline in the type system — which mutex guards
 * which member, which functions require which capability — so a clang
 * build with -Wthread-safety proves it at compile time. Under every
 * other compiler the macros expand to nothing.
 *
 * Use them through the annotated wrappers in util/mutex.h; only
 * capability-shaped code (a new lock type, a lock-free facade) should
 * need the raw macros.
 *
 * Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
 */

#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define DTRANK_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif

#ifndef DTRANK_THREAD_ANNOTATION
#define DTRANK_THREAD_ANNOTATION(x) // no-op off clang
#endif

/** Marks a type as a lockable capability ("mutex", "shard", ...). */
#define DTRANK_CAPABILITY(name) \
    DTRANK_THREAD_ANNOTATION(capability(name))

/** Marks an RAII type that acquires in its ctor, releases in its dtor. */
#define DTRANK_SCOPED_CAPABILITY \
    DTRANK_THREAD_ANNOTATION(scoped_lockable)

/** Declares that a member is protected by the given capability. */
#define DTRANK_GUARDED_BY(x) DTRANK_THREAD_ANNOTATION(guarded_by(x))

/** Declares that the pointee of a pointer member is protected. */
#define DTRANK_PT_GUARDED_BY(x) \
    DTRANK_THREAD_ANNOTATION(pt_guarded_by(x))

/** The function acquires the capability and holds it on return. */
#define DTRANK_ACQUIRE(...) \
    DTRANK_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** The function releases a capability the caller holds. */
#define DTRANK_RELEASE(...) \
    DTRANK_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** The caller must hold the capability for the duration of the call. */
#define DTRANK_REQUIRES(...) \
    DTRANK_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** The caller must NOT hold the capability (deadlock prevention). */
#define DTRANK_EXCLUDES(...) \
    DTRANK_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** The function acquires the capability iff it returns `result`. */
#define DTRANK_TRY_ACQUIRE(result, ...) \
    DTRANK_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))

/** The function returns a reference to the named capability. */
#define DTRANK_RETURN_CAPABILITY(x) \
    DTRANK_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: disables the analysis for one function. */
#define DTRANK_NO_THREAD_SAFETY_ANALYSIS \
    DTRANK_THREAD_ANNOTATION(no_thread_safety_analysis)

// Instrumentation macros.  Call sites in the sweep engine use these rather
// than the obs classes directly so that default builds pay nothing: unless
// the build sets SSVSP_OBS (cmake -DSSVSP_OBS=ON, propagated as a PUBLIC
// compile definition of the ssvsp_obs target), every macro expands to
// `((void)0)` and its arguments are never evaluated.
//
// With SSVSP_OBS on:
//   OBS_SPAN("sweep.chunk")        RAII span on the calling thread
//   OBS_INSTANT("saturated")       point event
//   OBS_COUNTER_ADD("x", n)        global counter += n (ref cached per site)
//   OBS_COUNTER_INC("x")           global counter += 1
//   OBS_GAUGE_SET("x", v)          global gauge = v
//   OBS_GAUGE_MAX("x", v)          global gauge = max(gauge, v)
//   OBS_HISTOGRAM("x", v)          observe v in the global histogram
//
// Metric names must be string literals (they key the registry and are
// cached in a function-local static on first pass).  Span names must
// outlive the trace session: literals.
#pragma once

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#define SSVSP_OBS_CAT2_(a, b) a##b
#define SSVSP_OBS_CAT_(a, b) SSVSP_OBS_CAT2_(a, b)

#if defined(SSVSP_OBS) && SSVSP_OBS

#define SSVSP_OBS_ENABLED 1

#define OBS_SPAN(name)                                         \
  ::ssvsp::obs::ScopedSpan SSVSP_OBS_CAT_(obsSpan_, __LINE__) { name }

#define OBS_INSTANT(name) ::ssvsp::obs::traceInstant(name)

#define OBS_COUNTER_ADD(name, delta)                           \
  do {                                                         \
    static ::ssvsp::obs::Counter& obsCounterRef_ =             \
        ::ssvsp::obs::metrics().counter(name);                 \
    obsCounterRef_.add(delta);                                 \
  } while (0)

#define OBS_COUNTER_INC(name) OBS_COUNTER_ADD(name, 1)

#define OBS_GAUGE_SET(name, v)                                 \
  do {                                                         \
    static ::ssvsp::obs::Gauge& obsGaugeRef_ =                 \
        ::ssvsp::obs::metrics().gauge(name);                   \
    obsGaugeRef_.set(v);                                       \
  } while (0)

#define OBS_GAUGE_MAX(name, v)                                 \
  do {                                                         \
    static ::ssvsp::obs::Gauge& obsGaugeRef_ =                 \
        ::ssvsp::obs::metrics().gauge(name);                   \
    obsGaugeRef_.max(v);                                       \
  } while (0)

#define OBS_HISTOGRAM(name, v)                                 \
  do {                                                         \
    static ::ssvsp::obs::Histogram& obsHistRef_ =              \
        ::ssvsp::obs::metrics().histogram(name);               \
    obsHistRef_.observe(v);                                    \
  } while (0)

#else  // !SSVSP_OBS

#define SSVSP_OBS_ENABLED 0

#define OBS_SPAN(name) ((void)0)
#define OBS_INSTANT(name) ((void)0)
#define OBS_COUNTER_ADD(name, delta) ((void)0)
#define OBS_COUNTER_INC(name) ((void)0)
#define OBS_GAUGE_SET(name, v) ((void)0)
#define OBS_GAUGE_MAX(name, v) ((void)0)
#define OBS_HISTOGRAM(name, v) ((void)0)

#endif  // SSVSP_OBS

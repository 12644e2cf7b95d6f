package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds the values.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p < 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tails reports the highest of p90, p99 and p99.9 that has at least ten
// samples beyond it, as (label, value); ok is false below forty
// samples, where a percentile would be no tail.
func tails(xs []float64) (label string, v float64, ok bool) {
	if len(xs) < 40 {
		return "", 0, false
	}
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.9}} {
		if float64(len(xs))*(1-p.q) >= 10 {
			return p.label, percentile(xs, p.q), true
		}
	}
	return "", 0, false
}

// ms converts a duration to float milliseconds with all its digits.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// secs converts a duration to float seconds with all its digits.
func secs(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e9 }

// fits reports whether one more unit of work, as long as the last one
// took, ends within the run time that started at start. Runs stop
// before the unit that would overrun, so a run's length stays near its
// run time whatever the unit's length.
func fits(start time.Time, run, last time.Duration) bool {
	return time.Since(start)+last <= run
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// cpuNow returns the CPU time the process has used so far: all its
// threads, user and system, in nanoseconds. On a virtual machine whose
// kernel accounts steal time (PARAVIRT_TIME_ACCOUNTING), the time the
// hypervisor gives other guests is not in it, while wall time counts
// it in full; on a shared 2-vCPU host that steal swung wall times by a
// third between runs of the same code.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + e.Error())
	}
	return time.Duration(ts.Nano())
}

// stamp is a point in both wall time and process CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func stampNow() stamp { return stamp{time.Now(), cpuNow()} }

// since returns the wall and CPU time elapsed since s.
func (s stamp) since() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuNow() - s.cpu
}

// medianSetup runs a set-up repeatedly for at least window of wall
// time (and at least minReps times) and returns the median CPU time of
// one set-up in seconds. Each repetition starts from a collected heap,
// so no repetition pays for collecting the garbage of the one before.
func medianSetup(window time.Duration, minReps int, setup func() error) (float64, error) {
	var ds []float64
	for start := time.Now(); len(ds) < minReps || time.Since(start) < window; {
		runtime.GC()
		t0 := cpuNow()
		if err := setup(); err != nil {
			return 0, err
		}
		ds = append(ds, secs(cpuNow()-t0))
	}
	return median(ds), nil
}

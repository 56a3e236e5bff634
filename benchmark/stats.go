package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest value with at least p% of the samples at or below it.
// xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(float64(len(xs))*p/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median of a copy of xs (mean of the two middle values for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// pass is what one timed replay of the op list measured.
type pass struct {
	opMicros []float64 // wall time of each op, microsecond resolution
	wall     time.Duration
	cpu      time.Duration // process user+sys
	mallocs  uint64
	allocB   uint64
	failed   int
	delta    counters // product counters, end minus start
	// speed brings this pass's clock readings to reference speed (see
	// reference); the caller sets it from the gauges around the pass.
	speed float64
}

// opsPerSecond is the pass's throughput at reference speed.
func (p *pass) opsPerSecond() float64 {
	return float64(len(p.opMicros)) / (p.wall.Seconds() * p.speed)
}

// bestPass picks the pass with the highest throughput: interference
// from the shared machine only ever adds time.
func bestPass(passes []pass) *pass {
	best := &passes[0]
	for i := range passes[1:] {
		if passes[i+1].opsPerSecond() > best.opsPerSecond() {
			best = &passes[i+1]
		}
	}
	return best
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	if v, ok := procStatus("VmHWM"); ok {
		return v / 1024
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// procField returns the rest of the first line of a /proc file that
// starts with key.
func procField(path, key string) (string, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":")), true
		}
	}
	return "", false
}

// procStatus reads one kB-valued field of /proc/self/status.
func procStatus(key string) (float64, bool) {
	rest, ok := procField("/proc/self/status", key)
	if !ok {
		return 0, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	return v, err == nil
}

// environment describes where the numbers were taken.
func environment() string {
	model, ok := procField("/proc/cpuinfo", "model name")
	if !ok {
		model = "unknown"
	}
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return fmt.Sprintf("go=%s gomaxprocs=%d gogc=%s nproc=%d cpu=%q commit=%s",
		runtime.Version(), runtime.GOMAXPROCS(0), gogc, runtime.NumCPU(), model, commit)
}

// reference is a fixed, allocation-free kernel — streaming, scattered
// memory access, sorting and hashing over a few megabytes — whose run
// time on a quiet heap tracks how fast the machine currently is. The
// machine this benchmark runs on is a slice of a shared box and drifts by
// tens of per cent over minutes, product code and kernel alike (measured
// over 270 alternations of kernel and search ops: run-sized averages of
// the two correlate at 0.97, and their ratio varies by 1.7 % where the op
// time alone varies by 7 %). Timing metrics are therefore reported at
// reference speed: the clock's reading times referenceNominal over the
// kernel's time around the measured interval.
type reference struct {
	stream  []float64
	table   []int32
	pattern []float64
	scratch []float64
	block   []byte
	sink    float64
	runs    int // kernel runs per gauge
}

// referenceNominal is the kernel's run time on the machine, and in the
// state, the workloads were sized on. It only fixes the unit: a reported
// millisecond is a millisecond of a machine on which the kernel takes
// this long.
const referenceNominal = 10 * time.Millisecond

func newReference(runs int) *reference {
	r := &reference{
		runs:    runs,
		stream:  make([]float64, 1<<18),
		table:   make([]int32, 1<<20),
		pattern: make([]float64, 1<<14),
		scratch: make([]float64, 1<<14),
		block:   make([]byte, 1<<16),
	}
	x := uint32(2463534242)
	next := func() uint32 { // xorshift32
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range r.stream {
		r.stream[i] = float64(next() % 1000)
	}
	for i := range r.pattern {
		r.pattern[i] = float64(next())
	}
	for i := range r.block {
		r.block[i] = byte(next())
	}
	return r
}

// run executes the kernel once and returns how long it took.
func (r *reference) run() time.Duration {
	start := time.Now()
	var sum float64
	for rep := 0; rep < 4; rep++ {
		for _, v := range r.stream {
			sum += v
		}
	}
	idx := uint32(1)
	for i := 0; i < len(r.table); i++ {
		idx = idx*1664525 + 1013904223
		r.table[idx>>12]++
	}
	for rep := 0; rep < 4; rep++ {
		copy(r.scratch, r.pattern)
		sort.Float64s(r.scratch)
		sum += r.scratch[rep]
	}
	h := uint64(14695981039346656037)
	for rep := 0; rep < 16; rep++ {
		for _, b := range r.block {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	r.sink += sum + float64(h&0xff)
	return time.Since(start)
}

// gauge reads the machine: it collects garbage, so that the kernel never
// shares the processor's caches and memory with the product's concurrent
// collector (or it would speed up whenever the product allocates less),
// and returns the fastest of a few kernel runs — interference only ever
// adds time. Every timed interval has a gauge on either side.
func (r *reference) gauge() time.Duration {
	runtime.GC()
	best := r.run()
	for i := 1; i < r.runs; i++ {
		if d := r.run(); d < best {
			best = d
		}
	}
	return best
}

// speed is the factor that brings a clock reading, taken between two
// gauges, to reference speed.
func speed(before, after time.Duration) float64 {
	return 2 * float64(referenceNominal) / float64(before+after)
}

package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples is a latency or value sample. Percentiles use the nearest-rank
// rule on the sorted sample.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(float64(d.Nanoseconds())) }

func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(math.Ceil(p/100*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

// windows is the number of equal slices a measured phase is cut into for
// windowed medians.
const windows = 10

// windowed cuts [start, end) into windows equal slices by each sample's
// completion time and returns the median over the slices of the slice's
// p-th percentile and of its completions per second. A burst of outside
// interference moves a few slices, not the median.
func windowed(vals samples, at []time.Time, start, end time.Time, p float64) (pct, rate float64) {
	w := end.Sub(start) / windows
	if w <= 0 {
		return vals.pct(p), 0
	}
	per := make([]samples, windows)
	for i, t := range at {
		if k := int(t.Sub(start) / w); k >= 0 && k < windows {
			per[k] = append(per[k], vals[i])
		}
	}
	var pcts, rates samples
	for _, s := range per {
		if len(s) > 0 {
			pcts.add(s.pct(p))
		}
		rates.add(float64(len(s)) / w.Seconds())
	}
	return pcts.pct(50), rates.pct(50)
}

// windowedTail returns the p-th percentile as the median over up to three
// consecutive slices of the sample (in completion order), each holding at
// least tailSamples(p) values, so that a burst of outside interference in
// one slice does not move the figure. ok is false when the sample is too
// small for even one slice; v is then the whole sample's percentile.
func windowedTail(vals samples, p float64) (v float64, ok bool) {
	need := tailSamples(p)
	k := min(len(vals)/need, 3)
	if k == 0 {
		return vals.pct(p), false
	}
	var per samples
	size := len(vals) / k
	for i := 0; i < k; i++ {
		per.add(vals[i*size : (i+1)*size].pct(p))
	}
	sort.Float64s(per)
	if k%2 == 1 {
		return per[k/2], true
	}
	return (per[k/2-1] + per[k/2]) / 2, true
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t / float64(len(s))
}

// tailSamples is the sample count a percentile needs before it is
// reported: at least ten samples beyond it.
func tailSamples(p float64) int { return int(math.Ceil(10/(1-p/100) - 1e-9)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rt reads the Go runtime's cumulative allocation and GC counters.
type rt struct {
	allocBytes, allocObjs, gcCycles uint64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readRT() rt {
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	return rt{allocBytes: s[0].Value.Uint64(), allocObjs: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64()}
}

func (a rt) sub(b rt) rt {
	return rt{allocBytes: a.allocBytes - b.allocBytes, allocObjs: a.allocObjs - b.allocObjs, gcCycles: a.gcCycles - b.gcCycles}
}

// liveHeapMiB is the heap in use once every garbage object is collected. An
// object with a finalizer (a closed store's base file and the page cache it
// holds) is freed only by the collection after its finalizer ran, so this
// collects until the heap stops shrinking.
func liveHeapMiB() float64 {
	var ms runtime.MemStats
	least := uint64(math.MaxUint64)
	for range 5 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond) // the finalizers run meanwhile
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc >= least {
			break
		}
		least = ms.HeapAlloc
	}
	return float64(least) / (1 << 20)
}

// writtenBytes is the process's cumulative write-syscall byte count
// (/proc/self/io wchar): the storage writes of the WAL and checkpoints,
// counted from outside the store.
func writtenBytes() (uint64, error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wchar: "); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, os.ErrNotExist
}

// promSum adds the values of the Prometheus text lines that start with
// prefix and contain label.
func promSum(prom, prefix, label string) float64 {
	var sum float64
	for _, line := range strings.Split(prom, "\n") {
		if !strings.HasPrefix(line, prefix) || !strings.Contains(line, label) {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// histP50 reads the median of an obs.Histogram from its Prometheus text,
// interpolating linearly inside the bucket that holds it.
func histP50(prom string) float64 {
	type bucket struct{ le, count float64 }
	var bs []bucket
	for _, line := range strings.Split(prom, "\n") {
		i := strings.Index(line, `_bucket{le="`)
		if i < 0 {
			continue
		}
		rest := line[i+len(`_bucket{le="`):]
		j := strings.Index(rest, `"}`)
		if j < 0 {
			continue
		}
		le, err1 := strconv.ParseFloat(rest[:j], 64)
		if rest[:j] == "+Inf" {
			le, err1 = math.Inf(1), nil
		}
		c, err2 := strconv.ParseFloat(strings.TrimSpace(rest[j+2:]), 64)
		if err1 == nil && err2 == nil {
			bs = append(bs, bucket{le, c})
		}
	}
	if len(bs) == 0 || bs[len(bs)-1].count == 0 {
		return 0
	}
	half := bs[len(bs)-1].count / 2
	prevLe, prevC := 0.0, 0.0
	for _, b := range bs {
		if b.count >= half {
			if math.IsInf(b.le, 1) {
				return prevLe
			}
			return prevLe + (b.le-prevLe)*ratio(half-prevC, b.count-prevC)
		}
		prevLe, prevC = b.le, b.count
	}
	return prevLe
}

// expBuckets returns n geometric bucket bounds from lo by factor f.
func expBuckets(lo, f float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo
		lo *= f
	}
	return out
}

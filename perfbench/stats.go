package main

import (
	"runtime/metrics"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantileDur returns the nearest-rank q-quantile of ds (ds is not
// modified).
func quantileDur(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// medianDur returns the median of ds, averaging the middle pair.
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// heapSampler records the live heap the runtime reports after each
// garbage collection, polling the collection counter every millisecond.
type heapSampler struct {
	stopc chan struct{}
	done  chan []uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan []uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		var last uint64
		var live []uint64
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				metrics.Read(s)
				if c := s[0].Value.Uint64(); c != last {
					last = c
					live = append(live, s[1].Value.Uint64())
				}
			case <-h.stopc:
				h.done <- live
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the high-water live heap in bytes: the
// 95th percentile over the collections seen, so one collection that
// happened to land on a burst of request garbage does not set the figure.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	live := <-h.done
	if len(live) == 0 {
		return readLive()
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	return live[(len(live)*95)/100]
}

func readLive() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

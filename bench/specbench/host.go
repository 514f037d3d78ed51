package main

import (
	"math"
	"sync/atomic"
	"time"
)

// The benchmark's reference machine is a 2-vCPU VM on a shared host
// whose speed drifts: for minutes at a time every workload runs 30-80%
// slower, and a fixed CPU loop slows with it. Medians over the passes of
// a run cannot absorb slow periods that long, so a run times
// calibrationLoop throughout and reports its time metrics at the
// reference host's speed (see atReferenceSpeed). bench/results/ holds
// the calibration data.

// calibrationEvery is how often a run times calibrationLoop: often
// enough for a hundred samples per pass, while the loop's ~0.24 ms keeps
// its share of one CPU near half a percent.
const calibrationEvery = 50 * time.Millisecond

// refCalibration is calibrationLoop's median time on the reference
// machine (Intel Xeon family 6 model 143, 2 vCPUs, go1.24) while its
// host is quiet, when the samples barely vary. A run's slowdown is its
// median sample over this.
const refCalibration = 240 * time.Microsecond

// passSensitivity and setupSensitivity are how many times as fast as
// the loop's time, on a log scale, a pass's times and set-up time grow
// as the host slows. Over 171 passes and runs of the four workloads
// across quiet and slow periods on the reference machine, log pass time
// rose 1.6-2.2 times as fast as log loop time (correlation at least
// 0.93); dividing by the slowdown squared took the quartile spread of
// each workload's pass times from 26-32% to 5-9%. Set-up time rose
// about as fast as the loop (slope 1.1), so it is divided by the
// slowdown itself.
const (
	passSensitivity  = 2
	setupSensitivity = 1
)

// calibrationSink keeps the compiler from removing calibrationLoop.
var calibrationSink atomic.Uint64

// calibrationLoop is fixed integer work on a 4 KiB table, which stays in
// the L1 cache, so neither the program's memory use nor its code moves
// the loop's time; only the speed the host gives the core does.
func calibrationLoop(table *[512]uint64) uint64 {
	x := uint64(88172645463325252)
	var s uint64
	for range 100_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 511
		table[j] += x
		s += table[(j*7)&511]
	}
	return s
}

// hostSampler times calibrationLoop every calibrationEvery, from start
// until slowdown is called.
type hostSampler struct {
	stop chan struct{}
	done chan []time.Duration
}

func startHostSampler() *hostSampler {
	h := &hostSampler{stop: make(chan struct{}), done: make(chan []time.Duration, 1)}
	go func() {
		var table [512]uint64
		sample := func(samples []time.Duration) []time.Duration {
			t := time.Now()
			calibrationSink.Add(calibrationLoop(&table))
			return append(samples, time.Since(t))
		}
		samples := sample(nil)
		tick := time.NewTicker(calibrationEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				h.done <- samples
				return
			case <-tick.C:
				samples = sample(samples)
			}
		}
	}()
	return h
}

// slowdown stops the sampler, waits for it to exit, and returns how many
// times slower than the reference the host ran: the median sample over
// refCalibration. Call it once.
func (h *hostSampler) slowdown() float64 {
	close(h.stop)
	samples := <-h.done
	xs := make([]float64, len(samples))
	for i, d := range samples {
		xs[i] = d.Seconds()
	}
	return median(xs) / refCalibration.Seconds()
}

// atReferenceSpeed rescales metrics measured on a host running slowdown
// times slower than the reference to the reference host's speed: times
// (s, ms) shrink by the slowdown raised to their sensitivity, and rates
// (1/s) grow by it. Sizes, counts and ratios stay as measured.
func (m metrics) atReferenceSpeed(slowdown float64) {
	for name, v := range m {
		f := math.Pow(slowdown, passSensitivity)
		if name == "setup_s" {
			f = math.Pow(slowdown, setupSensitivity)
		}
		switch v.Unit {
		case "s", "ms":
			v.Value /= f
		case "1/s":
			v.Value *= f
		default:
			continue
		}
		m[name] = v
	}
}

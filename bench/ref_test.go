package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// The subtraction in the measurement loop relies on the kernel allocating
// exactly refAllocs objects, and on echoes and the second lane allocating
// none.
func TestReferenceAllocations(t *testing.T) {
	var lane refLane
	if got := testing.AllocsPerRun(200, lane.kernel); got != refAllocs {
		t.Errorf("kernel allocates %v objects per call, want %d", got, refAllocs)
	}
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	u := refUnit{kernelCalls: 4, echoCalls: 2, lanes: 2}
	got := testing.AllocsPerRun(200, func() {
		if _, _, _, err := ref.run(u, time.Now()); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(refAllocs * u.kernelCalls); got != want {
		t.Errorf("unit %+v allocates %v objects, want %v", u, got, want)
	}
	if _, err := ref.calibrate(); err != nil {
		t.Error(err)
	}
}

// A unit runs all its kernel calls whatever the split between echoes and
// lanes.
func TestUnitRunsEveryKernelCall(t *testing.T) {
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	for _, u := range []refUnit{{4, 5, 1}, {28, 3, 1}, {7, 0, 1}, {9, 2, 2}, {0, 3, 1}} {
		got := testing.AllocsPerRun(20, func() {
			if _, _, _, err := ref.run(u, time.Now()); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(refAllocs * u.kernelCalls); got != want {
			t.Errorf("unit %+v: %v allocations, want %v (= %d kernel calls)", u, got, want, u.kernelCalls)
		}
	}
}

func syntheticRounds(rng *rand.Rand, n int, unit refUnit) []round {
	rounds := make([]round, n)
	for i := range rounds {
		r := round{unit: unit}
		for j := 0; j < 50; j++ {
			r.opNS = append(r.opNS, 1e5*(1+rng.Float64()))
		}
		calls := float64(len(r.opNS))
		r.kernelNS = calls * float64(unit.kernelCalls) * 12e3 * (1 + 0.1*rng.Float64())
		r.echoNS = calls * float64(unit.echoCalls) * 15e3 * (1 + 0.1*rng.Float64())
		r.cpuNS = r.opSum()*1.3 + r.refCPUNS()
		r.mallocs = calls * (200 + refAllocs*float64(unit.kernelCalls))
		r.allocB = calls * (20000 + 1024*float64(unit.kernelCalls))
		rounds[i] = r
	}
	return rounds
}

// Scaling every duration of a round by any factor, as a slow or a fast
// spell of the machine does, leaves every normalised metric unchanged.
func TestNormalisationIsScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, unit := range []refUnit{{4, 5, 1}, {1400, 0, 2}} {
		base := syntheticRounds(rng, 12, unit)
		want := summarize(base, 1024, 95)
		scaled := make([]round, len(base))
		for i, r := range base {
			f := 0.5 + 2*rng.Float64()
			s := r
			s.opNS = make([]float64, len(r.opNS))
			for j, x := range r.opNS {
				s.opNS[j] = x * f
			}
			s.kernelNS, s.echoNS, s.cpuNS = r.kernelNS*f, r.echoNS*f, r.cpuNS*f
			scaled[i] = s
		}
		got := summarize(scaled, 1024, 95)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"throughput", got.throughputNorm, want.throughputNorm},
			{"p50", got.p50NormMS, want.p50NormMS},
			{"tail", got.tailNormMS, want.tailNormMS},
			{"cpu", got.cpuNormMS, want.cpuNormMS},
			{"allocs", got.allocsPerOp, want.allocsPerOp},
			{"alloc KiB", got.allocKBPerOp, want.allocKBPerOp},
		} {
			if math.Abs(c.got-c.want) > 1e-9*math.Abs(c.want) {
				t.Errorf("unit %+v: %s changed from %v to %v when rounds were rescaled", unit, c.name, c.want, c.got)
			}
		}
		if got.rawP50MS == want.rawP50MS {
			t.Errorf("unit %+v: raw p50 did not change when rounds were rescaled", unit)
		}
	}
}

// The op counters are net of the reference's own allocations and
// processor time, and a round at nominal speed is reported unscaled.
func TestSummaryArithmetic(t *testing.T) {
	unit := refUnit{kernelCalls: 10, echoCalls: 2, lanes: 1}
	r := round{unit: unit, opNS: []float64{1e6, 3e6}}
	r.kernelNS = 2 * 10 * RefNominalUS * 1e3
	r.echoNS = 2 * 2 * EchoNominalUS * 1e3
	r.cpuNS = 6e6 + r.refNS()
	r.mallocs = 2*100 + refAllocs*20
	r.allocB = 2*2048 + 512*20
	s := summarize([]round{r}, 512, 50)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"scale", r.scale(), 1},
		{"throughput", s.throughputNorm, 500},
		{"p50 ms", s.p50NormMS, 2},
		{"cpu ms/op", s.cpuNormMS, 3},
		{"allocs/op", s.allocsPerOp, 100},
		{"KiB/op", s.allocKBPerOp, 2},
	} {
		if math.Abs(c.got-c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	xs := []float64{1, 2, 4, 7, 11, 16, 22, 29, 37, 46}
	if got, want := spreadIQR(xs), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spreadIQR = %v, want %v", got, want)
	}
}

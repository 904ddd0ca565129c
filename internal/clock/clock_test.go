package clock

import (
	"testing"
	"testing/quick"
	"time"

	"wanfd/internal/sim"
)

func TestSampleOffsetSymmetricPath(t *testing.T) {
	// Server clock 2 s ahead; both paths take 100 ms.
	s := Sample{
		T1: 10 * time.Second,
		T2: 12*time.Second + 100*time.Millisecond,
		T3: 12*time.Second + 100*time.Millisecond,
		T4: 10*time.Second + 200*time.Millisecond,
	}
	if got := s.Offset(); got != 2*time.Second {
		t.Errorf("offset = %v, want 2s", got)
	}
	if got := s.Delay(); got != 200*time.Millisecond {
		t.Errorf("delay = %v, want 200ms", got)
	}
}

func TestSampleOffsetAsymmetryError(t *testing.T) {
	// 100 ms out, 300 ms back: the classic ±(asymmetry/2) error.
	s := Sample{
		T1: 0,
		T2: 2*time.Second + 100*time.Millisecond,
		T3: 2*time.Second + 100*time.Millisecond,
		T4: 400 * time.Millisecond,
	}
	err := s.Offset() - 2*time.Second
	if err != -100*time.Millisecond {
		t.Errorf("asymmetry error = %v, want -100ms", err)
	}
}

func TestEstimateOffsetFiltersHighDelay(t *testing.T) {
	// True offset 1 s. Low-delay samples are accurate; high-delay samples
	// carry large asymmetric errors. The filter must keep the estimate
	// near 1 s.
	rng := sim.NewRNG(8, "ntp")
	samples := make([]Sample, 0, 20)
	for i := 0; i < 20; i++ {
		out := 100 * time.Millisecond
		back := 100 * time.Millisecond
		if i%4 == 0 { // congested exchange
			out += time.Duration(rng.Intn(500)) * time.Millisecond
		}
		t1 := time.Duration(i) * time.Second
		samples = append(samples, Sample{
			T1: t1,
			T2: t1 + time.Second + out,
			T3: t1 + time.Second + out,
			T4: t1 + out + back,
		})
	}
	got, err := EstimateOffset(samples)
	if err != nil {
		t.Fatal(err)
	}
	diff := got - time.Second
	if diff < -5*time.Millisecond || diff > 5*time.Millisecond {
		t.Errorf("estimated offset %v, want ≈1s", got)
	}
}

func TestEstimateOffsetEmpty(t *testing.T) {
	if _, err := EstimateOffset(nil); err == nil {
		t.Error("empty sample set should be rejected")
	}
}

func TestEstimateOffsetDoesNotMutateInput(t *testing.T) {
	samples := []Sample{
		{T1: 0, T2: 5, T3: 5, T4: 10},
		{T1: 0, T2: 3, T3: 3, T4: 2},
	}
	first := samples[0]
	if _, err := EstimateOffset(samples); err != nil {
		t.Fatal(err)
	}
	if samples[0] != first {
		t.Error("input mutated")
	}
}

// Property: for symmetric paths, Sample.Offset recovers the exact offset
// regardless of delay and clock values.
func TestSampleOffsetExactProperty(t *testing.T) {
	f := func(offMs int32, delayMs uint16, procMs uint8, t1Ms uint32) bool {
		off := time.Duration(offMs) * time.Millisecond
		d := time.Duration(delayMs) * time.Millisecond
		proc := time.Duration(procMs) * time.Millisecond
		t1 := time.Duration(t1Ms) * time.Millisecond
		s := Sample{
			T1: t1,
			T2: t1 + d + off,
			T3: t1 + d + off + proc,
			T4: t1 + 2*d + proc,
		}
		return s.Offset() == off && s.Delay() == 2*d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

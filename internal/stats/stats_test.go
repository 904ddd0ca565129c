package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if !almostEqual(r.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	// population variance is 4; sample variance is 32/7
	if !almostEqual(r.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", r.Min(), r.Max())
	}
	if !almostEqual(r.Sum(), 40, 1e-12) {
		t.Errorf("Sum = %v, want 40", r.Sum())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 || r.Min() != 0 || r.Max() != 0 {
		t.Errorf("zero-value Running should report zeros, got %+v", r)
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(42)
	if r.Variance() != 0 {
		t.Errorf("single-observation variance = %v, want 0", r.Variance())
	}
	if r.Min() != 42 || r.Max() != 42 {
		t.Errorf("Min/Max = %v/%v, want 42/42", r.Min(), r.Max())
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*10 + 5
	}
	var whole Running
	for _, x := range xs {
		whole.Add(x)
	}
	var a, b Running
	for _, x := range xs[:313] {
		a.Add(x)
	}
	for _, x := range xs[313:] {
		b.Add(x)
	}
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	if !almostEqual(a.Mean(), whole.Mean(), 1e-9) {
		t.Errorf("merged mean = %v, want %v", a.Mean(), whole.Mean())
	}
	if !almostEqual(a.Variance(), whole.Variance(), 1e-9) {
		t.Errorf("merged variance = %v, want %v", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Errorf("merged min/max = %v/%v, want %v/%v", a.Min(), a.Max(), whole.Min(), whole.Max())
	}
}

func TestRunningMergeIntoEmpty(t *testing.T) {
	var a, b Running
	b.Add(1)
	b.Add(3)
	a.Merge(&b)
	if a.N() != 2 || !almostEqual(a.Mean(), 2, 1e-12) {
		t.Errorf("merge into empty: N=%d mean=%v", a.N(), a.Mean())
	}
	var c Running
	a.Merge(&c) // merging empty is a no-op
	if a.N() != 2 {
		t.Errorf("merge of empty changed N to %d", a.N())
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summary basics wrong: %+v", s)
	}
	if !almostEqual(s.Mean, 5.5, 1e-12) {
		t.Errorf("mean = %v, want 5.5", s.Mean)
	}
	if !almostEqual(s.P50, 5.5, 1e-12) {
		t.Errorf("P50 = %v, want 5.5", s.P50)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Summarize(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3.0, 20},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tc.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("expected error for empty input")
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Error("expected error for q > 1")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("expected error for q < 0")
	}
}

func TestMeanCI(t *testing.T) {
	mean, hw, err := MeanCI([]float64{5, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if mean != 5 || hw != 0 {
		t.Errorf("constant sample: mean=%v hw=%v, want 5, 0", mean, hw)
	}
	if _, _, err := MeanCI(nil); err == nil {
		t.Error("expected error for empty input")
	}
	_, hw, err = MeanCI([]float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if hw <= 0 {
		t.Errorf("nondegenerate sample should have positive CI half-width, got %v", hw)
	}
}

// Property: Running mean/variance agree with direct two-pass computation.
func TestRunningMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v) / 7.0
		}
		var r Running
		var sum float64
		for _, x := range xs {
			r.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		var ss float64
		for _, x := range xs {
			d := x - mean
			ss += d * d
		}
		variance := ss / float64(len(xs)-1)
		return almostEqual(r.Mean(), mean, 1e-6) && almostEqual(r.Variance(), variance, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []int16, qa, qb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		q1 := float64(qa%101) / 100
		q2 := float64(qb%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, err1 := Quantile(xs, q1)
		v2, err2 := Quantile(xs, q2)
		if err1 != nil || err2 != nil {
			return false
		}
		lo, _ := Quantile(xs, 0)
		hi, _ := Quantile(xs, 1)
		return v1 <= v2+1e-9 && v1 >= lo-1e-9 && v2 <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ysPos := []float64{2, 4, 6, 8, 10}
	r, err := Correlation(xs, ysPos)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("perfect positive correlation = %v, want 1", r)
	}
	ysNeg := []float64{10, 8, 6, 4, 2}
	r, err = Correlation(xs, ysNeg)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("perfect negative correlation = %v, want -1", r)
	}
	// Independent-ish data: |r| well below 1.
	r, err = Correlation([]float64{1, 2, 3, 4}, []float64{5, -5, 5, -5})
	if err != nil {
		t.Fatal(err)
	}
	if r < -0.9 || r > 0.9 {
		t.Errorf("alternating data correlation = %v, want near 0", r)
	}
}

func TestCorrelationErrors(t *testing.T) {
	if _, err := Correlation([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Correlation([]float64{1}, []float64{1}); err == nil {
		t.Error("single point should fail")
	}
	if _, err := Correlation([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Error("zero variance should fail")
	}
}

// Property: correlation is symmetric and bounded in [-1, 1].
func TestCorrelationBoundsProperty(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 4 || len(raw)%2 != 0 {
			return true
		}
		half := len(raw) / 2
		xs := make([]float64, half)
		ys := make([]float64, half)
		for i := 0; i < half; i++ {
			xs[i] = float64(raw[i])
			ys[i] = float64(raw[half+i])
		}
		a, errA := Correlation(xs, ys)
		b, errB := Correlation(ys, xs)
		if errA != nil || errB != nil {
			return true // degenerate input (zero variance)
		}
		return almostEqual(a, b, 1e-9) && a >= -1-1e-9 && a <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

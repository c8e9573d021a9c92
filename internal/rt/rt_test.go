package rt

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want Time }{
		{0, 1, 0},
		{1, 1, 1},
		{1, 2, 1},
		{2, 2, 1},
		{3, 2, 2},
		{10, 3, 4},
		{9, 3, 3},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCeilDivPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CeilDiv(-1, 2) did not panic")
		}
	}()
	CeilDiv(-1, 2)
}

func TestSatAddSaturates(t *testing.T) {
	if got := SatAdd(Infinity, 1); got != Infinity {
		t.Errorf("SatAdd(Infinity,1) = %d", got)
	}
	if got := SatAdd(Infinity-1, 5); got != Infinity {
		t.Errorf("SatAdd(near-Infinity,5) = %d", got)
	}
	if got := SatAdd(2, 3); got != 5 {
		t.Errorf("SatAdd(2,3) = %d", got)
	}
}

func TestSatMulSaturates(t *testing.T) {
	if got := SatMul(Infinity, 2); got != Infinity {
		t.Errorf("SatMul(Infinity,2) = %d", got)
	}
	if got := SatMul(0, Infinity); got != 0 {
		t.Errorf("SatMul(0,Infinity) = %d", got)
	}
	if got := SatMul(7, 6); got != 42 {
		t.Errorf("SatMul(7,6) = %d", got)
	}
}

// satMulRef is the SatMul specification: the exact product of two
// non-negative operands, clamped to Infinity.
func satMulRef(a, b Time) Time {
	p := new(big.Int).Mul(big.NewInt(a), big.NewInt(b))
	if p.Cmp(big.NewInt(Infinity)) > 0 {
		return Infinity
	}
	return p.Int64()
}

// TestSatMulMatchesExactProduct pins SatMul to min(a*b, Infinity) over the
// whole non-negative int64 domain: the overflow boundary around
// floor(Infinity/b), products landing exactly on Infinity, operands at or
// beyond Infinity, zeros, and random operands of every magnitude.
func TestSatMulMatchesExactProduct(t *testing.T) {
	check := func(a, b Time) {
		t.Helper()
		want := satMulRef(a, b)
		if got := SatMul(a, b); got != want {
			t.Fatalf("SatMul(%d, %d) = %d, want %d", a, b, got, want)
		}
		if got := SatMul(b, a); got != want {
			t.Fatalf("SatMul(%d, %d) = %d, want %d", b, a, got, want)
		}
	}
	bs := []Time{1, 2, 3, 4, 5, 7, 10, 1000, Microsecond, Second, 1 << 31, 1<<32 + 1,
		Infinity / 3, Infinity / 2, Infinity - 1, Infinity, Infinity + 1, math.MaxInt64}
	for _, b := range bs {
		q := Infinity / b
		for _, a := range []Time{q - 1, q, q + 1, q + 2} {
			if a >= 0 {
				check(a, b)
			}
		}
	}
	// Infinity = 2^61 - 1 is a Mersenne prime, so 1 * Infinity is the only
	// product of non-negative operands landing on it exactly; its
	// neighbours straddle it.
	check(1, Infinity)
	check(1, Infinity-1)
	check(1, Infinity+1)
	check(2, Infinity/2)
	check(2, Infinity/2+1)
	for _, x := range []Time{0, 1, 2, Infinity - 1, Infinity, Infinity + 1, math.MaxInt64} {
		check(0, x)
		check(x, Infinity)
		check(x, math.MaxInt64)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		// Random magnitudes: operand bit lengths are drawn uniformly, so
		// products straddle the saturation boundary in every proportion.
		a := rng.Int63() >> rng.Intn(63)
		b := rng.Int63() >> rng.Intn(63)
		check(a, b)
	}
}

func TestSatOpsNeverExceedInfinity(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := Time(a)*Microsecond, Time(b)*Microsecond
		return SatAdd(x, y) <= Infinity && SatMul(x, y) <= Infinity
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCeilDivIsCeiling(t *testing.T) {
	f := func(a uint16, b uint16) bool {
		x, y := Time(a), Time(b%1000+1)
		got := CeilDiv(x, y)
		return got*y >= x && (got-1)*y < x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPriorityHigher(t *testing.T) {
	if !Priority(5).Higher(3) {
		t.Error("Priority(5).Higher(3) = false")
	}
	if Priority(3).Higher(5) {
		t.Error("Priority(3).Higher(5) = true")
	}
	if Priority(3).Higher(3) {
		t.Error("Priority(3).Higher(3) = true")
	}
}

func TestFormatTime(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{Infinity, "inf"},
		{2 * Second, "2s"},
		{5 * Millisecond, "5ms"},
		{15 * Microsecond, "15us"},
		{123, "123ns"},
		{1500, "1500ns"},
	}
	for _, c := range cases {
		if got := FormatTime(c.in); got != c.want {
			t.Errorf("FormatTime(%d) = %q, want %q", c.in, got, c.want)
		}
		if got := string(AppendTime([]byte("R="), c.in)); got != "R="+c.want {
			t.Errorf("AppendTime(%d) = %q, want %q", c.in, got, "R="+c.want)
		}
	}
}

package core

import "testing"

func TestLowerBound32(t *testing.T) {
	a := []int32{2, 4, 4, 9}
	cases := []struct {
		x    int32
		want int
	}{
		{0, 0}, {2, 0}, {3, 1}, {4, 1}, {5, 3}, {9, 3}, {10, 4},
	}
	for _, c := range cases {
		if got := lowerBound32(a, c.x); got != c.want {
			t.Errorf("lowerBound32(%v, %d) = %d, want %d", a, c.x, got, c.want)
		}
	}
	if got := lowerBound32(nil, 1); got != 0 {
		t.Errorf("lowerBound32(nil, 1) = %d, want 0", got)
	}
}

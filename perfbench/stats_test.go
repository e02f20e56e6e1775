package main

import "testing"

func TestWindowedTail(t *testing.T) {
	// Three slices of 1000; the middle one holds a burst. The median of the
	// slices' p99s ignores the burst.
	var s samples
	for w := 0; w < 3; w++ {
		for i := 0; i < 1000; i++ {
			v := float64(i % 100)
			if w == 1 && i%10 == 0 {
				v = 1e6
			}
			s.add(v)
		}
	}
	v, ok := windowedTail(s, 99)
	if !ok || v != 98 {
		t.Fatalf("windowedTail = %g, %v; want 98, true", v, ok)
	}
	if _, ok := windowedTail(s[:999], 99); ok {
		t.Fatal("999 samples gave a p99")
	}
}

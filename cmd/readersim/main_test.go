package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		tags, movers, antennas int
		ok                     bool
	}{
		{40, 2, 1, true},
		{0, 0, 4, true},
		{40, 2, 0, false},
		{40, 2, -1, false},
		{-1, 2, 1, false},
		{40, -1, 1, false},
	} {
		if err := checkFlags(tc.tags, tc.movers, tc.antennas); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%d, %d, %d) = %v, want ok=%v", tc.tags, tc.movers, tc.antennas, err, tc.ok)
		}
	}
}

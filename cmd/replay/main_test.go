package main

import (
	"strings"
	"testing"
)

func TestParseIntervals(t *testing.T) {
	good := map[string][]int64{
		"1":          {1},
		"1,3,6,9,12": {1, 3, 6, 9, 12},
		" 9 , 12 ":   {9, 12},
	}
	for in, want := range good {
		got, err := parseIntervals(in)
		if err != nil {
			t.Errorf("parseIntervals(%q): unexpected error %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("parseIntervals(%q) = %v, want %v", in, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("parseIntervals(%q)[%d] = %d, want %d", in, i, got[i], want[i])
			}
		}
	}

	bad := map[string]string{
		"":       "empty",
		"   ":    "empty",
		"1,,3":   "empty element",
		"abc":    "not a whole number",
		"1,abc":  "not a whole number",
		"1.5":    "not a whole number",
		"0":      "not positive",
		"-2":     "not positive",
		"3,0,6":  "not positive",
		"6,-1":   "not positive",
		"9999e9": "not a whole number",
		"3,3":    `-interval list "3,3" repeats 3h`,
		"1,3,03": `-interval list "1,3,03" repeats 3h`,
	}
	for in, wantSub := range bad {
		got, err := parseIntervals(in)
		if err == nil {
			t.Errorf("parseIntervals(%q) = %v, want error", in, got)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("parseIntervals(%q) error = %q, want it to mention %q", in, err, wantSub)
		}
	}
}

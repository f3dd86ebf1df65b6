package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckAllocsFailsLoudly pins the -check contract: a missing,
// corrupt, or degenerate -against report must fail the gate with a clear
// error, never let it silently pass; a genuine regression trips it; a
// measurement within the envelope passes.
func TestCheckAllocsFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{"current": {"allocs_per_event": 1e-5}}`)
	corrupt := write("corrupt.json", `{"current": {"allocs_per_event":`)
	zero := write("zero.json", `{"current": {"allocs_per_event": 0}}`)
	empty := write("empty.json", `{}`)

	cases := []struct {
		name    string
		cur     metrics
		against string
		wantErr string
	}{
		{"missing file", metrics{AllocsPerEvent: 1e-5}, filepath.Join(dir, "nope.json"), "reading recorded report"},
		{"corrupt json", metrics{AllocsPerEvent: 1e-5}, corrupt, "parsing"},
		{"zero recorded", metrics{AllocsPerEvent: 1e-5}, zero, "non-positive"},
		{"empty report", metrics{AllocsPerEvent: 1e-5}, empty, "non-positive"},
		{"regression", metrics{AllocsPerEvent: 1.1e-4}, good, "regressed"},
		{"pass", metrics{AllocsPerEvent: 2e-5}, good, ""},
		{"pass at limit", metrics{AllocsPerEvent: 9.9e-5}, good, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkAllocs(tc.cur, tc.against)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected gate failure: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed silently, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckSpeedGate pins the calibrated ns/event gate: missing or
// degenerate recorded values fail loudly (including a report from
// before the gate recorded a calibrated ratio), a regression of the
// ratio beyond tolerance trips it, and measurements within (or at) the
// envelope pass.
func TestCheckSpeedGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{"current": {"calibrated_ratio": 0.2}}`)
	zero := write("zero.json", `{"current": {"calibrated_ratio": 0}}`)
	uncalibrated := write("uncalibrated.json", `{"current": {"ns_per_event": 38.2}}`)
	corrupt := write("corrupt.json", `{"current": {"calibrated_ratio":`)

	cases := []struct {
		name    string
		cur     metrics
		against string
		wantErr string
	}{
		{"missing file", metrics{Calibrated: 0.2}, filepath.Join(dir, "nope.json"), "reading recorded report"},
		{"corrupt json", metrics{Calibrated: 0.2}, corrupt, "parsing"},
		{"zero recorded", metrics{Calibrated: 0.2}, zero, "non-positive"},
		{"no recorded calibration", metrics{Calibrated: 0.2}, uncalibrated, "non-positive"},
		{"regression", metrics{Calibrated: 0.232}, good, "regressed"},
		{"pass", metrics{Calibrated: 0.2}, good, ""},
		{"pass at limit", metrics{Calibrated: 0.2299}, good, ""},
		{"pass improved", metrics{Calibrated: 0.08}, good, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkSpeed(tc.cur, tc.against, 0.15)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected gate failure: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("gate passed silently, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestMedian pins the estimator the speed gate grades.
func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median(5,1,3) = %g, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median(4,1,3,2) = %g, want 2.5", m)
	}
}

// TestCalibratorIsPositive keeps the yardstick sane: a calibration pass
// must report a positive, finite cost per op.
func TestCalibratorIsPositive(t *testing.T) {
	if ns := newCalibrator().pass(); !(ns > 0 && ns < 1e6) {
		t.Fatalf("calibration pass = %g ns/op, want a positive finite cost", ns)
	}
}

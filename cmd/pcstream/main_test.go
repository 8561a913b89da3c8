package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunStreamsDeterministically: the same flags produce the
// byte-identical record stream, and the stream is non-trivial.
func TestRunStreamsDeterministically(t *testing.T) {
	args := []string{"-duration", "4", "-seed", "9"}
	var out1, out2, errb bytes.Buffer
	if err := run(args, &out1, &errb); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &out2, &errb); err != nil {
		t.Fatal(err)
	}
	if out1.Len() == 0 {
		t.Fatal("no records streamed")
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatal("identical flags produced different streams")
	}
	if !strings.HasPrefix(out1.String(), "c,") && !strings.HasPrefix(out1.String(), "s,") {
		t.Fatalf("unexpected stream leader: %q", out1.String()[:40])
	}
}

// TestRunFlagValidation: bad flag values surface as errors, not panics.
func TestRunFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-machine", "nope"},
		{"-attribution", "nope"},
		{"-duration", "0"},
		{"-duration", "-1"},
		{"-duration", "NaN"},
		{"-duration", "+Inf"},
		{"-duration", "1e300"},
		{"-duration", "1e-12"},
		{"-load", "0"},
		{"-load", "-0.5"},
		{"-load", "NaN"},
		{"-load", "Inf"},
		{"-tick", "0"},
		{"-tick", "9223372036854775807"},
		{"extra"},
	} {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunDurableMatchesPlainRun: -dir streams through the WAL store and
// prints the stream read back from it — byte-identical to the plain run —
// and rerunning over the same store re-emits the identical stream without
// appending anything twice.
func TestRunDurableMatchesPlainRun(t *testing.T) {
	base := []string{"-duration", "4", "-seed", "9", "-workload", "GAE-Vosao", "-load", "0.4"}
	var plain, errb bytes.Buffer
	if err := run(base, &plain, &errb); err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "wal")
	var first, ferr bytes.Buffer
	if err := run(append([]string{"-dir", dir}, base...), &first, &ferr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), plain.Bytes()) {
		t.Fatalf("durable stream (%d bytes) differs from plain run (%d bytes)", first.Len(), plain.Len())
	}
	if !strings.Contains(ferr.String(), "recovery: mode=fresh") {
		t.Fatalf("first open not fresh: %s", ferr.String())
	}

	var again, aerr bytes.Buffer
	if err := run(append([]string{"-dir", dir}, base...), &again, &aerr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), plain.Bytes()) {
		t.Fatal("re-run over the finished store changed the stream")
	}
	if !strings.Contains(aerr.String(), "recovery: mode=checkpoint") {
		t.Fatalf("re-run did not recover from the checkpoint: %s", aerr.String())
	}
}

// TestRunSuperviseCrashRecovery is the CLI-level exactly-once contract:
// three injected crashes — mid-WAL-sync, a torn WAL append, and a death
// at the checkpoint rename — each kill an attempt, the supervisor
// restarts through them, and the final stdout is byte-identical to the
// uninterrupted run.
func TestRunSuperviseCrashRecovery(t *testing.T) {
	base := []string{"-duration", "4", "-seed", "9", "-workload", "GAE-Vosao", "-load", "0.4"}
	var plain, errb bytes.Buffer
	if err := run(base, &plain, &errb); err != nil {
		t.Fatal(err)
	}

	args := append([]string{
		"-dir", "wal", "-supervise", "-backoff-ms", "0",
		"-crash", "crash:op=sync,match=wal-,index=3",
		"-crash", "crash:op=write,match=wal-,index=40,keep=6",
		"-crash", "crash:op=rename,match=checkpoint.ck,index=2",
	}, base...)
	var got, serr bytes.Buffer
	if err := run(args, &got, &serr); err != nil {
		t.Fatalf("supervised run: %v\nstderr: %s", err, serr.String())
	}
	if !bytes.Equal(got.Bytes(), plain.Bytes()) {
		t.Fatalf("stream after 3 injected crashes (%d bytes) differs from uninterrupted run (%d bytes)\nstderr: %s",
			got.Len(), plain.Len(), serr.String())
	}
	if !strings.Contains(serr.String(), "restart 3:") {
		t.Fatalf("supervisor did not report three restarts: %s", serr.String())
	}
	if !strings.Contains(serr.String(), "4 attempts") {
		t.Fatalf("summary missing attempt count: %s", serr.String())
	}
}

// TestRunDurableFlagValidation: the durable-mode flag combinations that
// cannot work are refused up front.
func TestRunDurableFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"-supervise"},
		{"-crash", "crash:op=sync,index=1"},
		{"-dir", "d", "-crash", "crash:op=sync,index=1"},
		{"-checkpoint-every", "5"},
		{"-dir", "d", "-checkpoint-every", "-1"},
		{"-dir", "d", "-supervise", "-crash", "nonsense"},
	} {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

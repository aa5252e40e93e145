package experiments

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// fakeStep returns a step named name whose table is titled name.
func fakeStep(name string, run func() error) step {
	return step{name, func() (*Table, error) {
		if err := run(); err != nil {
			return nil, err
		}
		return &Table{Title: name}, nil
	}}
}

func TestRunStepsOrderAndFailure(t *testing.T) {
	nolog := func(string, ...any) {}

	t.Run("order", func(t *testing.T) {
		// "first" finishes only after "second" has: it is still written
		// first.
		secondDone := make(chan struct{})
		steps := []step{
			fakeStep("first", func() error { <-secondDone; return nil }),
			fakeStep("second", func() error { close(secondDone); return nil }),
		}
		var out bytes.Buffer
		tables, err := runSteps(steps, 2, &out, nolog)
		if err != nil {
			t.Fatal(err)
		}
		if len(tables) != 2 || tables[0].Title != "first" || tables[1].Title != "second" {
			t.Fatalf("tables = %v, want first, second", tables)
		}
		if got := out.String(); strings.Index(got, "first") > strings.Index(got, "second") {
			t.Errorf("output not in step order:\n%s", got)
		}
	})

	t.Run("failure", func(t *testing.T) {
		boom := errors.New("boom")
		started := false
		steps := []step{
			fakeStep("ok", func() error { return nil }),
			fakeStep("bad", func() error { return boom }),
			fakeStep("later", func() error { started = true; return nil }),
		}
		var out bytes.Buffer
		tables, err := runSteps(steps, 1, &out, nolog)
		if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "bad: ") {
			t.Fatalf("err = %v, want bad: boom", err)
		}
		if started {
			t.Error("a step after the failure started")
		}
		if len(tables) != 1 || tables[0].Title != "ok" {
			t.Errorf("tables = %v, want the one before the failure", tables)
		}
		if got := out.String(); !strings.Contains(got, "ok") || strings.Contains(got, "later") {
			t.Errorf("output = %q, want only the table before the failure", got)
		}
	})
}

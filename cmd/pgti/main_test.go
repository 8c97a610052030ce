package main

import (
	"bytes"
	"strings"
	"testing"
)

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUnknownSubcommandIsUsageError(t *testing.T) {
	code, _, stderr := runArgs("nope")
	if code != 2 || !strings.Contains(stderr, `unknown subcommand "nope"`) {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, c := range subcommands {
		if !strings.Contains(stderr, "  "+c.name+" ") {
			t.Errorf("usage does not list %q:\n%s", c.name, stderr)
		}
	}
}

func TestSubcommandsParseHelp(t *testing.T) {
	for _, c := range subcommands {
		code, _, stderr := runArgs(c.name, "-h")
		if code != 0 || !strings.HasPrefix(stderr, "usage: pgti "+c.name+" [flags]") {
			t.Errorf("%s -h: exit %d, stderr %q", c.name, code, stderr)
		}
	}
}

// TestHelpIsDeterministic renders train's usage several times: the
// strategy, model and shuffle lists come from maps and must print sorted.
func TestHelpIsDeterministic(t *testing.T) {
	_, _, first := runArgs("train", "-h")
	for _, want := range []string{
		"baseline|baseline-ddp|dist-index|gen-dist-index|gpu-index|index",
		"a3tgcn|dcrnn|pgt-dcrnn|st-llm",
		"batch|global|local",
	} {
		if !strings.Contains(first, want) {
			t.Errorf("usage lacks the sorted list %q:\n%s", want, first)
		}
	}
	for i := 0; i < 10; i++ {
		if _, _, again := runArgs("train", "-h"); again != first {
			t.Fatalf("two usage renders differ:\n%s\n---\n%s", first, again)
		}
	}
}

// TestOutOfRangeScaleIsUsageError holds every subcommand that takes -scale
// to core.Config.Validate's rule before it does any work.
func TestOutOfRangeScaleIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"train"},
		{"serve"},
		{"bench", "table1"},
		{"datagen", "-dataset", "Chickenpox-Hungary"},
	} {
		for _, scale := range []string{"5", "NaN", "-0.5"} {
			argv := append([]string{args[0], "-scale", scale}, args[1:]...)
			code, stdout, stderr := runArgs(argv...)
			if code != 2 || stdout != "" ||
				!strings.Contains(stderr, "invalid config: Scale: scale "+scale+" outside (0, 1]") {
				t.Errorf("%v: exit %d, stdout %q, stderr %q", argv, code, stdout, stderr)
			}
		}
	}
}

func TestTrainOneEpoch(t *testing.T) {
	code, stdout, stderr := runArgs("train", "-dataset", "Chickenpox-Hungary", "-epochs", "1", "-quiet")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	for _, want := range []string{
		"dataset=Chickenpox-Hungary strategy=",
		"    0 ",
		"best val MAE ",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

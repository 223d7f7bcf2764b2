// Package fixture exercises the faultpoint analyzer: fault-injection
// point names must be unique compile-time string constants in
// snake_case '/'-separated segments. Dynamic names, malformed names,
// and one name instrumented at two sites are flagged; single constant
// sites and suppressed lines are not.
package fixture

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/faultinject"
)

const (
	pointGood = "fixture/good_point"
	pointDup  = "fixture/dup_point"
)

// Clean instruments two distinct points, one site each — clean.
func Clean(w io.Writer) error {
	if err := faultinject.Hit(pointGood); err != nil {
		return err
	}
	_, err := faultinject.WrapWriter("fixture/write_point", w).Write(nil)
	return err
}

// CleanCtx instruments a context-attributed point with a constant
// name, one site — clean. The name argument sits at index 1.
func CleanCtx(ctx context.Context) error {
	return faultinject.HitCtx(ctx, "fixture/ctx_point")
}

// Dynamic builds the name at runtime — flagged.
func Dynamic(kind string) error {
	return faultinject.Hit("fixture/" + kind)
}

// DynamicCtx builds a context-attributed name at runtime — flagged.
func DynamicCtx(ctx context.Context, kind string) error {
	return faultinject.HitCtx(ctx, "fixture/"+kind)
}

// Formatted builds the name with Sprintf — flagged.
func Formatted(n int) error {
	return faultinject.Hit(fmt.Sprintf("fixture/step_%d", n))
}

// BadName uses a constant that violates the convention — flagged.
func BadName() error {
	return faultinject.Hit("fixture/BadPoint")
}

// DupA and DupB instrument the same name twice — both flagged.
func DupA() error {
	return faultinject.Hit(pointDup)
}

func DupB(w io.Writer) io.Writer {
	return faultinject.WrapWriter(pointDup, w)
}

// Suppressed carries a sanctioned ignore — counted, not reported.
func Suppressed(kind string) error {
	//lint:ignore faultpoint test-only helper arming a caller-chosen point
	return faultinject.Hit(kind)
}

// Unrelated calls with string arguments are not the analyzer's
// business — clean.
func Unrelated() *bytes.Buffer {
	return bytes.NewBufferString("fixture/not_a_point")
}

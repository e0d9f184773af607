package fixedpoint_test

import (
	"testing"

	"repro/fixedpoint"
)

func TestPublicFixedPoint(t *testing.T) {
	a := fixedpoint.FromComplex(complex(0.5, -0.25))
	if a.Re() != 1<<14 || a.Im() != -1<<13 {
		t.Errorf("FromComplex(0.5-0.25i) = (%d, %d)", a.Re(), a.Im())
	}
	if fixedpoint.Pack(1<<14, -1<<13) != a {
		t.Error("Pack disagrees with FromComplex")
	}
	if a.Complex() != complex(0.5, -0.25) {
		t.Errorf("round trip = %v", a.Complex())
	}
}

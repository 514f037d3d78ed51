package conf

import (
	"fmt"

	"specctrl/internal/bpred"
)

// And combines two estimators conservatively: high confidence only when
// both agree it is high confidence. SPEC and PVP can only improve over
// the stronger input; SENS can only fall. The McFarling "Both Strong"
// variant is the hand-built special case of this combinator.
type And struct {
	A, B Estimator
}

// Name implements Estimator.
func (c And) Name() string { return fmt.Sprintf("And(%s,%s)", c.A.Name(), c.B.Name()) }

// Estimate implements Estimator.
func (c And) Estimate(pc int64, info bpred.Info) bool {
	// Evaluate both unconditionally: stateful estimators (Distance,
	// JRS) must observe every branch.
	a := c.A.Estimate(pc, info)
	b := c.B.Estimate(pc, info)
	return a && b
}

// Resolve implements Estimator.
func (c And) Resolve(pc int64, info bpred.Info, correct bool) {
	c.A.Resolve(pc, info, correct)
	c.B.Resolve(pc, info, correct)
}

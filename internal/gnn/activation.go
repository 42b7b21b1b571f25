package gnn

import (
	"fmt"

	"repro/internal/tensor"
)

// ActKind names an element-wise activation so layers can be serialised
// and reconstructed (function values cannot).
type ActKind uint8

const (
	ActIdentity ActKind = iota
	ActReLU
)

func (k ActKind) String() string {
	switch k {
	case ActIdentity:
		return "identity"
	case ActReLU:
		return "relu"
	}
	return fmt.Sprintf("ActKind(%d)", uint8(k))
}

// Fn returns the activation function.
func (k ActKind) Fn() tensor.Activation {
	switch k {
	case ActIdentity:
		return tensor.Identity
	case ActReLU:
		return tensor.ReLU
	}
	panic(fmt.Sprintf("gnn: bad ActKind %d", uint8(k)))
}

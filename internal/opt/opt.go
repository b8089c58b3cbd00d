// Package opt provides the gradient-descent optimizer used to train the
// evaluation models and to drive the O-TP input-optimization loop
// (Algorithm 1 of the paper updates the test pattern with plain SGD; model
// training adds momentum and weight decay) and its learning-rate schedule.
package opt

import (
	"fmt"
	"math"

	"reramtest/internal/nn"
)

// SGD is plain stochastic gradient descent with optional momentum and weight
// decay.
type SGD struct {
	params   []*nn.Param
	lr       float64
	momentum float64
	decay    float64
	velocity [][]float64
}

// NewSGD builds an SGD optimizer over params. momentum=0 gives vanilla SGD.
func NewSGD(params []*nn.Param, lr, momentum, weightDecay float64) *SGD {
	if lr <= 0 {
		panic(fmt.Sprintf("opt: SGD learning rate must be positive, got %v", lr))
	}
	s := &SGD{params: params, lr: lr, momentum: momentum, decay: weightDecay}
	if momentum != 0 {
		s.velocity = make([][]float64, len(params))
		for i, p := range params {
			s.velocity[i] = make([]float64, p.Value.Len())
		}
	}
	return s
}

// Step applies one SGD update.
func (s *SGD) Step() {
	for i, p := range s.params {
		v, g := p.Value.Data(), p.Grad.Data()
		if s.velocity == nil {
			for j := range v {
				grad := g[j] + s.decay*v[j]
				v[j] -= s.lr * grad
			}
			continue
		}
		vel := s.velocity[i]
		for j := range v {
			grad := g[j] + s.decay*v[j]
			vel[j] = s.momentum*vel[j] - s.lr*grad
			v[j] += vel[j]
		}
	}
}

// StepAndZero applies one SGD update and zeroes the gradients in the same
// pass over the parameters (Step's bits: the update reads g[j] before it is
// cleared).
func (s *SGD) StepAndZero() {
	for i, p := range s.params {
		v, g := p.Value.Data(), p.Grad.Data()
		if s.velocity == nil {
			for j := range v {
				grad := g[j] + s.decay*v[j]
				v[j] -= s.lr * grad
				g[j] = 0
			}
			continue
		}
		vel := s.velocity[i]
		for j := range v {
			grad := g[j] + s.decay*v[j]
			vel[j] = s.momentum*vel[j] - s.lr*grad
			v[j] += vel[j]
			g[j] = 0
		}
	}
}

// SetLR changes the learning rate.
func (s *SGD) SetLR(lr float64) { s.lr = lr }

// LR returns the current learning rate.
func (s *SGD) LR() float64 { return s.lr }

// StepDecay returns a schedule that multiplies the base LR by factor every
// interval epochs: lr(e) = base * factor^(e/interval).
func StepDecay(base, factor float64, interval int) func(epoch int) float64 {
	return func(epoch int) float64 {
		return base * math.Pow(factor, float64(epoch/interval))
	}
}

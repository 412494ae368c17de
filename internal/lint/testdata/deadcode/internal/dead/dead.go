// Package dead plants one identifier of each kind TestNoDeadCodeFixture
// checks the gate against. Only Dead and OnlyTested may be reported.
package dead

// Dead has no reference anywhere.
func Dead() int { return 1 }

// OnlyTested is referenced only from dead_test.go.
func OnlyTested() int { return 2 }

// Name is printed by cmd/app; fmt reaches String through fmt.Stringer.
type Name struct{ s string }

// NewName returns a Name.
func NewName(s string) Name { return Name{s} }

func (n Name) String() string { return n.s }

// Job's Done is reached only through Run's type constraint.
type Job struct{}

// Done reports the job's outcome.
func (Job) Done() error { return nil }

// Run finishes j.
func Run[J interface{ Done() error }](j J) error { return j.Done() }

// shape is satisfied by square through its unexported method.
type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

// Area measures a square through the shape interface.
func Area(side int) int {
	var sh shape = square{side}
	return sh.area()
}

// ForBench is referenced only from the second module, bench/.
func ForBench() int { return 3 }

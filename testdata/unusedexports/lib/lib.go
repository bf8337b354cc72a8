package lib

// Shape is reached only through NewShape's result: referenced.
type Shape struct{ side float64 }

// NewShape is called by main.
func NewShape(side float64) *Shape { return &Shape{side: side} }

// Area is reached only through main's interface: referenced.
func (s *Shape) Area() float64 { return Scale * s.side * s.side }

// Scale is used only inside this package: reported, to be unexported.
const Scale = 1.0

// Unused has no caller: reported as dead.
func Unused() {}

// TestOnly is used only by a test: reported as dead.
func TestOnly() int { return 1 }

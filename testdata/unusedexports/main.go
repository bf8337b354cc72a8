// Command fixture is the module TestNoUnusedExports checks its own
// checker against: each name in package lib plants one rule.
package main

import (
	"fmt"

	"fixture/lib"
)

type areaer interface{ Area() float64 }

func main() {
	var a areaer = lib.NewShape(2)
	fmt.Println(a.Area())
}

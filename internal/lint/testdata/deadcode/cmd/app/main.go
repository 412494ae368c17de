package main

import (
	"fmt"

	"fixture/internal/dead"
)

func main() {
	fmt.Println(dead.NewName("x"), dead.Run(dead.Job{}), dead.Area(2))
}

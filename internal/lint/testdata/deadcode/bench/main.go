package main

import (
	"fmt"

	"fixture/internal/dead"
)

func main() {
	fmt.Println(dead.ForBench())
}

//go:build !race

package gm

func poison([]byte) {}

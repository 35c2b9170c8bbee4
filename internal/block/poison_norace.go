//go:build !race

package block

const poisonArena = false

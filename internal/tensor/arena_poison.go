//go:build arenapoison

package tensor

func init() { poison = true }

package server

// KeyMemoBound is the most entries a NewKeyMemo memo holds.
const KeyMemoBound = 2 * memoGeneration

// Len returns the number of memoized fingerprints.
func (m *KeyMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cur) + len(m.old)
}

// Keys returns the server's key memo (nil when the cache is off).
func (s *Server) Keys() *KeyMemo { return s.keys }

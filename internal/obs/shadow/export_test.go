package shadow

import "repro/internal/page"

// ResidentIDs returns the ghost-resident page IDs in unspecified order.
// Unlike the counter accessors it reads the frame table, so it must not
// race with Ref — call it only while the cache (or its Bank) is
// quiescent.
func (c *Cache) ResidentIDs() []page.ID {
	ids := make([]page.ID, 0, len(c.frames))
	for id := range c.frames {
		ids = append(ids, id)
	}
	return ids
}

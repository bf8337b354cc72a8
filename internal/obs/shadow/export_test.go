package shadow

import "repro/internal/page"

// ResidentIDs returns the ghost-resident page IDs in unspecified order.
// Unlike the counter accessors it walks the frame table, so it must not
// race with Ref — call it only while the cache (or its Bank) is
// quiescent.
func (c *Cache) ResidentIDs() []page.ID { return c.frames.ResidentIDs() }

// Package predictor implements the integer Lorenzo predictor shared by
// the prediction-based pipelines over fixed-point data: ours (package
// core), and the FPZIP-like and isosurface-preserving baselines.
//
// The Lorenzo predictor estimates a value from its already-reconstructed
// lower neighbors by inclusion–exclusion over the corner of the (hyper)cube
// behind it. Predictions are always made from *decompressed* values so the
// decompressor can reproduce them exactly (the "coupled" property the
// paper inherits from SZ).
package predictor

// Lorenzo predicts data[idx] at (i, j, k) of an nx×ny-plane row-major
// volume, idx = (k·ny+j)·nx+i, from its lower neighbors (offsets in
// {−1,0}³). A neighbor takes part when its coordinates are in range and
// its index is at least lo; a missing one drops its terms, so the
// stencil falls back to the 2D, 1D and zero predictors on the faces,
// edges and corner. lo is the first index visited in the caller's order
// whose slow-axis neighbors are visited after it (the first vertex of a
// whole-domain piece, whose lower plane is a seam compressed last), or 0
// for a plain raster. A 2D grid is the k = 0 plane, and its piece starts
// are rows.
func Lorenzo(data []int64, nx, ny, i, j, k, lo int) int64 {
	idx := (k*ny+j)*nx + i
	sx, sy, sz := 1, nx, nx*ny
	x, y, z := i > 0, j > 0 && idx-sy >= lo, k > 0 && idx-sz >= lo
	switch {
	case x && y && z:
		return data[idx-sx] + data[idx-sy] + data[idx-sz] -
			data[idx-sx-sy] - data[idx-sx-sz] - data[idx-sy-sz] +
			data[idx-sx-sy-sz]
	case x && y:
		return data[idx-sx] + data[idx-sy] - data[idx-sx-sy]
	case x && z:
		return data[idx-sx] + data[idx-sz] - data[idx-sx-sz]
	case y && z:
		return data[idx-sy] + data[idx-sz] - data[idx-sy-sz]
	case x:
		return data[idx-sx]
	case y:
		return data[idx-sy]
	case z:
		return data[idx-sz]
	default:
		return 0
	}
}

package spectest

// NewCountingWorkerDetect is NewWorkerDetect for the external tests,
// with a reader of how many records the worker re-decided on the
// reference transform.
func (d *Detector) NewCountingWorkerDetect() (detect func(good, faulty []int64) (bool, error), fallbacks func() int, err error) {
	w, err := d.newWorker(deltaMargin)
	if err != nil {
		return nil, nil, err
	}
	return w.detect, func() int { return w.fallbacks }, nil
}

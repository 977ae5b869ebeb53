//===- ImageReloader.cpp - SIGHUP automaton hot reload ------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/ImageReloader.h"

#include "isel/RuleSelector.h"
#include "matchergen/MatcherAutomaton.h"
#include "serve/SelectionService.h"

#include <chrono>
#include <cstdio>

using namespace selgen;

ImageReloader::ImageReloader(SelectionService &Service,
                             const PreparedLibrary &Library,
                             std::string ImagePath)
    : Service(Service), Library(Library), ImagePath(std::move(ImagePath)) {}

ImageReloader::~ImageReloader() {
  drain();
  if (Worker.joinable())
    Worker.join();
}

void ImageReloader::requestReload() {
  Pending.store(true, std::memory_order_relaxed);
}

void ImageReloader::tick() {
  if (Busy.load(std::memory_order_acquire))
    return;
  if (Worker.joinable())
    Worker.join(); // Reap the finished run before starting another.
  if (!Pending.exchange(false, std::memory_order_relaxed))
    return;
  Busy.store(true, std::memory_order_release);
  Worker = std::thread([this] { workerMain(); });
}

bool ImageReloader::drain(int64_t TimeoutMs) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(TimeoutMs);
  while (Pending.load(std::memory_order_relaxed) ||
         Busy.load(std::memory_order_acquire)) {
    tick();
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (Worker.joinable())
    Worker.join();
  return true;
}

std::string ImageReloader::lastError() const {
  std::lock_guard<std::mutex> Lock(ErrorMutex);
  return LastError;
}

void ImageReloader::augmentHealth(HealthReply &Reply) const {
  Reply.Reloads = reloads();
  Reply.ReloadFailures = failures();
}

void ImageReloader::workerMain() {
  std::string Explain;
  std::unique_ptr<MappedAutomaton> Candidate =
      MatcherAutomaton::mapBinary(ImagePath, &Explain);
  if (Candidate && Explain.empty())
    Explain = automatonStalenessError(Candidate->view(), Library);
  if (!Candidate || !Explain.empty()) {
    // Refuse the candidate; the image already serving stays live.
    Failures.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> Lock(ErrorMutex);
      LastError = Explain.empty() ? "unreadable image" : Explain;
    }
    std::fprintf(stderr, "selgen-served: reload of %s refused: %s\n",
                 ImagePath.c_str(),
                 Explain.empty() ? "unreadable image" : Explain.c_str());
    Busy.store(false, std::memory_order_release);
    return;
  }
  Service.swapImage(std::shared_ptr<MappedAutomaton>(std::move(Candidate)));
  Reloads.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "selgen-served: reloaded automaton image %s\n",
               ImagePath.c_str());
  Busy.store(false, std::memory_order_release);
}
